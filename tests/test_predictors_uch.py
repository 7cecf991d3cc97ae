"""Tests for the Unfused Committed History."""

from hypothesis import given, strategies as st

from repro.predictors.uch import UnfusedCommittedHistory


def test_miss_then_match():
    uch = UnfusedCommittedHistory(entries=6)
    assert uch.observe(pc=0x100, addr=0x20000, commit_number=10) is None
    match = uch.observe(pc=0x104, addr=0x20008, commit_number=13)
    assert match is not None
    assert match.head_pc == 0x100
    assert match.distance == 3


def test_match_invalidates_entry():
    uch = UnfusedCommittedHistory(entries=6)
    uch.observe(pc=0x100, addr=0x20000, commit_number=1)
    assert uch.observe(pc=0x104, addr=0x20010, commit_number=2) is not None
    # The entry was consumed: a third access to the same line misses
    # (and re-inserts).
    assert uch.observe(pc=0x108, addr=0x20020, commit_number=3) is None


def test_different_lines_do_not_match():
    uch = UnfusedCommittedHistory(entries=6)
    uch.observe(pc=0x100, addr=0x20000, commit_number=1)
    assert uch.observe(pc=0x104, addr=0x20040, commit_number=2) is None


def test_distance_beyond_max_not_reported():
    uch = UnfusedCommittedHistory(entries=6, max_distance=64)
    uch.observe(pc=0x100, addr=0x20000, commit_number=0)
    # 65 µ-ops later: too far to fuse.
    assert uch.observe(pc=0x104, addr=0x20008, commit_number=65) is None


def test_distance_exactly_max_reported():
    uch = UnfusedCommittedHistory(entries=6, max_distance=64)
    uch.observe(pc=0x100, addr=0x20000, commit_number=0)
    match = uch.observe(pc=0x104, addr=0x20008, commit_number=64)
    assert match is not None and match.distance == 64


def test_commit_number_wraparound():
    uch = UnfusedCommittedHistory(entries=6, max_distance=64)
    uch.observe(pc=0x100, addr=0x20000, commit_number=120)
    match = uch.observe(pc=0x104, addr=0x20008, commit_number=130)  # wraps to 2
    assert match is not None and match.distance == 10


def test_lru_replacement_evicts_oldest():
    uch = UnfusedCommittedHistory(entries=2)
    uch.observe(pc=0x100, addr=0x10000, commit_number=1)
    uch.observe(pc=0x104, addr=0x20000, commit_number=2)
    uch.observe(pc=0x108, addr=0x30000, commit_number=3)  # evicts line 0x10000
    # Line 0x10000 was the LRU victim, so probing it misses (and its
    # insertion in turn evicts the now-oldest line 0x20000)...
    assert uch.observe(pc=0x10C, addr=0x10000, commit_number=4) is None
    # ...while the most recent line 0x30000 is still resident.
    assert uch.observe(pc=0x110, addr=0x30008, commit_number=5) is not None


def test_invalid_entries_preferred_victims():
    uch = UnfusedCommittedHistory(entries=2)
    uch.observe(pc=0x100, addr=0x10000, commit_number=1)
    uch.observe(pc=0x104, addr=0x20000, commit_number=2)
    # Match invalidates the 0x10000 entry...
    assert uch.observe(pc=0x108, addr=0x10008, commit_number=3) is not None
    # ...so this insertion must reuse it, keeping 0x20000 alive.
    uch.observe(pc=0x10C, addr=0x30000, commit_number=4)
    assert uch.observe(pc=0x110, addr=0x20008, commit_number=5) is not None


def test_single_entry_store_history():
    uch = UnfusedCommittedHistory(entries=1)
    uch.observe(pc=0x100, addr=0x10000, commit_number=1)
    uch.observe(pc=0x104, addr=0x20000, commit_number=2)  # displaces
    assert uch.observe(pc=0x108, addr=0x10008, commit_number=3) is None
    assert uch.observe(pc=0x10C, addr=0x20008, commit_number=4) is None  # 0x20000 displaced at cn=3


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 127)), max_size=60))
def test_uch_never_reports_zero_or_oversized_distance(events):
    """Property: any reported distance d satisfies 0 < d <= max."""
    uch = UnfusedCommittedHistory(entries=4, max_distance=64)
    for i, (line, cn) in enumerate(events):
        match = uch.observe(pc=i * 4, addr=0x10000 + line * 64, commit_number=cn)
        if match is not None:
            assert 0 < match.distance <= 64
