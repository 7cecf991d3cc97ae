"""Crash-safety tests of the one on-disk store discipline
(:class:`repro.core.fsutil.DiskStore`), run over both stores built on
it: the result cache (JSON ``SimResult``) and the trace store (RPTB
``Trace``).

Many sweep workers read and write a store at once, and any of them may
be killed mid-write.  Each test pins one rule: a corrupt or truncated
entry is a miss and is quarantined, not destroyed; a concurrent put
survives the cleanup; listing skips files deleted under it; orphaned
temporaries are swept when a store opens; a write failure degrades the
store instead of aborting the run.
"""

import errno
import os
import time
import warnings

import pytest

from repro.config import FusionMode, ProcessorConfig
from repro.core import fsutil
from repro.core.simulator import simulate
from repro.experiments.cache import ResultCache
from repro.workloads import TraceStore, build_workload

WORKLOAD = "dijkstra"
CONFIG = ProcessorConfig().with_mode(FusionMode.HELIOS)


@pytest.fixture(scope="module")
def small_trace():
    return build_workload(WORKLOAD, max_uops=500)


@pytest.fixture(scope="module")
def small_result(small_trace):
    return simulate(small_trace, CONFIG, name=WORKLOAD)


class Case:
    """One store kind in a fresh directory, with one value to store."""

    def __init__(self, kind, root, value):
        self.kind = kind
        self.root = root
        self.value = value

    def open(self):
        cls = ResultCache if self.kind == "result" else TraceStore
        return cls(self.root)

    def _key(self):
        return (WORKLOAD, CONFIG) if self.kind == "result" \
            else (WORKLOAD, 500)

    def put(self, store):
        return store.put(*self._key(), self.value)

    def get(self, store):
        return store.get(*self._key())

    def holds_value(self, got):
        if self.kind == "result":
            return got.to_dict() == self.value.to_dict()
        return [(u.seq, u.pc, u.addr) for u in got] \
            == [(u.seq, u.pc, u.addr) for u in self.value]

    def entry_path(self, store):
        (path,) = self.root.glob("*" + store.suffix)
        return path


@pytest.fixture(params=["result", "trace"])
def case(request, tmp_path, small_trace, small_result):
    value = small_result if request.param == "result" else small_trace
    return Case(request.param, tmp_path / "store", value)


def test_round_trip_and_listing(case):
    store = case.open()
    assert case.get(store) is None                # cold
    path = case.put(store)
    assert case.holds_value(case.get(store))
    (entry,) = store.entries()
    assert entry["what"].startswith(WORKLOAD + " ")
    assert entry["file"] == case.entry_path(store).name
    assert store.size_bytes() == entry["bytes"] > 0
    if case.kind == "trace":                      # put returns the path
        assert path == case.entry_path(store)
    assert store.clear() == 1
    assert store.entries() == []


@pytest.mark.parametrize("damage", ["garbage", "truncated"])
def test_corrupt_entry_is_quarantined_not_destroyed(case, damage):
    store = case.open()
    case.put(store)
    path = case.entry_path(store)
    bad = (b"{ not an entry" if damage == "garbage"
           else path.read_bytes()[:20])
    path.write_bytes(bad)
    assert case.get(store) is None                # a miss, not a crash
    # The evidence is preserved out of the namespace, not unlinked.
    assert not path.exists()
    (quarantined,) = store.quarantined()
    assert quarantined.name == path.name + fsutil.QUARANTINE_SUFFIX
    assert quarantined.read_bytes() == bad
    assert store.entries() == []
    assert store.size_bytes() == 0
    case.put(store)                               # the key is writable
    assert case.holds_value(case.get(store))
    assert store.clear() == 2                     # entry + quarantined
    assert store.quarantined() == []


def test_concurrent_put_survives_corruption_cleanup(case, monkeypatch):
    # A blind unlink on a corrupt read could delete a fresh valid entry
    # that a concurrent put() had just os.replace'd over the corrupt
    # one.  Replay the two-process interleaving: this reader fails to
    # parse, the writer replaces the file, then the reader cleans up.
    reader = case.open()
    writer = case.open()                          # the "other process"
    case.put(reader)
    path = case.entry_path(reader)
    path.write_bytes(b"{ corrupt half-written entry")

    def racing_decode(handle):
        case.put(writer)
        raise ValueError("simulated corrupt parse")

    monkeypatch.setattr(reader, "decode", racing_decode)
    assert case.get(reader) is None               # this read: a miss
    monkeypatch.undo()
    assert path.exists()                          # the fresh entry
    assert reader.quarantined() == []             # was not condemned
    assert case.holds_value(case.get(reader))


class _RaceyRoot:
    """Root stub replaying a lost race: the directory listing still
    shows a file another process has already deleted."""

    def __init__(self, real, ghost):
        self._real = real
        self._ghost = ghost

    def glob(self, pattern):
        paths = list(self._real.glob(pattern))
        if self._ghost.match(pattern):
            paths.append(self._ghost)
        return paths


def test_entries_skip_files_deleted_mid_listing(case):
    store = case.open()
    case.put(store)
    (listed,) = store.entries()
    store.root = _RaceyRoot(case.root,
                            case.root / ("zz-deleted" + store.suffix))
    assert store.entries() == [listed]            # must not raise
    assert store.size_bytes() == listed["bytes"]  # nor this


def test_stale_tmps_swept_on_init(case):
    case.root.mkdir(parents=True)
    stale = case.root / "dead-writer.tmp"
    stale.write_bytes(b"half an entry")
    old = time.time() - 2 * fsutil.TMP_SWEEP_AGE_S
    os.utime(stale, (old, old))
    young = case.root / "live-writer.tmp"
    young.write_bytes(b"in-flight entry")
    store = case.open()                           # init sweeps age-gated
    assert not stale.exists()                     # orphan reclaimed
    assert young.exists()                         # live writer untouched
    assert store.orphan_tmps() == [young]
    assert store.entries() == []                  # tmps never listed
    assert store.clear() == 1                     # clear() is not aged
    assert store.orphan_tmps() == []


@pytest.mark.parametrize("failing", ["mkstemp", "replace"])
def test_put_degrades_on_write_failure(case, monkeypatch, failing):
    store = case.open()

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    target = fsutil.tempfile if failing == "mkstemp" else fsutil.os
    monkeypatch.setattr(target, failing, no_space)
    with pytest.warns(RuntimeWarning, match="degraded to uncached"):
        assert case.put(store) is None
    assert store.degraded
    with warnings.catch_warnings():
        warnings.simplefilter("error")            # the warning fires once
        assert case.put(store) is None
    monkeypatch.undo()
    assert case.get(store) is None
    assert list(case.root.glob("*")) == []        # nothing leaked
