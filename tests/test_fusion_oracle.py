"""Tests for the oracle pair discovery and the consecutive window."""

import gc

import pytest
from hypothesis import given, settings

from repro.analysis.legality import Reason
from repro.config import FusionMode, ProcessorConfig
from repro.fusion import (
    analyze_trace,
    consecutive_memory_pairs,
    oracle_memory_pairs,
    oracle_other_pairs,
)
from repro.fusion.taxonomy import BaseRegKind, Contiguity
from repro.fusion.window import ConsecutiveFusionWindow
from repro.isa import assemble, run_program
from repro.obs import CommitLog
from repro.pipeline.core import PipelineCore
from tests.test_pipeline_properties import stressful_programs


def trace_of(source):
    return run_program(assemble(source))


def seq_pairs(pairs):
    return [(p.head_seq, p.tail_seq) for p in pairs]


def test_consecutive_load_pair_found():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        ecall
    """)
    pairs = oracle_memory_pairs(trace)
    assert len(pairs) == 1
    assert pairs[0].consecutive
    assert pairs[0].contiguity is Contiguity.CONTIGUOUS


def test_non_consecutive_pair_over_catalyst():
    # The Figure 1 example: two loads separated by independent ALU ops.
    trace = trace_of("""
        li x1, 0x20000
        li x8, 3
        li x5, 4
        li x11, 5
        ld x6, 0(x1)
        add x7, x8, x5
        sub x12, x7, x11
        mv x15, x8
        ld x3, 8(x1)
        ecall
    """)
    pairs = oracle_memory_pairs(trace)
    assert len(pairs) == 1
    pair = pairs[0]
    assert not pair.consecutive
    assert pair.catalyst_size == 3
    assert pair.contiguity is Contiguity.CONTIGUOUS


def test_dependent_tail_rejected():
    # Tail load's base is produced from the head's result: deadlock case.
    trace = trace_of("""
        li x2, 0x20000
        ld x1, 0(x2)
        add x3, x1, x2
        ld x4, 0(x3)
        ecall
    """)
    assert oracle_memory_pairs(trace) == []


def test_indirect_dependence_rejected():
    trace = trace_of("""
        li x2, 0x20000
        li x9, 8
        ld x1, 0(x2)
        add x5, x1, x9
        add x6, x5, x9
        add x2, x6, x9
        ld x4, 0(x2)
        ecall
    """)
    assert oracle_memory_pairs(trace) == []


def test_taint_cleared_by_overwrite():
    # x5 consumes the head's result but is then overwritten by an
    # independent value before the tail uses it: no dependence remains.
    trace = trace_of("""
        li x2, 0x20000
        li x9, 8
        ld x1, 0(x2)
        add x5, x1, x9
        mv x5, x9
        add x6, x5, x2
        ld x4, 8(x2)
        ecall
    """)
    pairs = oracle_memory_pairs(trace)
    assert len(pairs) == 1


def test_store_pair_blocked_by_catalyst_store():
    # Stores may not fuse across another store (memory consistency).
    trace = trace_of("""
        li x1, 0x20000
        li x2, 0x30000
        sd x0, 0(x1)
        sd x0, 0(x2)
        sd x0, 8(x1)
        ecall
    """)
    pairs = oracle_memory_pairs(trace)
    # The only legal fusion is between the *adjacent* stores if they fit
    # a 64B region; 0x20000 vs 0x30000 do not, and the first/third pair
    # has a store in the catalyst.
    assert seq_pairs(pairs) == []


def test_adjacent_store_pair_fuses():
    trace = trace_of("""
        li x1, 0x20000
        sd x0, 0(x1)
        sd x0, 8(x1)
        ecall
    """)
    pairs = oracle_memory_pairs(trace)
    assert len(pairs) == 1
    assert pairs[0].idiom == "store_pair"


def test_loads_fuse_across_stores():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        sd x4, 128(x1)
        ld x5, 8(x1)
        ecall
    """)
    pairs = oracle_memory_pairs(trace)
    assert any(p.idiom == "load_pair" for p in pairs)


def test_serializing_op_blocks_fusion():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        fence
        ld x5, 8(x1)
        ecall
    """)
    assert oracle_memory_pairs(trace) == []


def test_dbr_load_pair_found():
    # Same cache line through two different base registers.
    trace = trace_of("""
        li x1, 0x20000
        li x2, 0x20020
        ld x4, 0(x1)
        ld x5, 0(x2)
        ecall
    """)
    pairs = oracle_memory_pairs(trace)
    assert len(pairs) == 1
    assert pairs[0].base_kind is BaseRegKind.DBR
    assert pairs[0].contiguity is Contiguity.SAME_LINE


def test_dbr_store_pair_rejected_by_default():
    trace = trace_of("""
        li x1, 0x20000
        li x2, 0x20010
        sd x0, 0(x1)
        sd x0, 0(x2)
        ecall
    """)
    census = {}
    assert oracle_memory_pairs(trace, reason_counts=census) == []
    assert census[Reason.DBR_STORE] == 1


def test_each_uop_fuses_once():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        ld x6, 16(x1)
        ecall
    """)
    pairs = oracle_memory_pairs(trace)
    assert len(pairs) == 1  # the third load has no partner left
    used = {s for p in pairs for s in (p.head_seq, p.tail_seq)}
    assert len(used) == 2


def test_max_distance_respected():
    filler = "\n".join("addi x9, x9, 1" for _ in range(70))
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        %s
        ld x5, 8(x1)
        ecall
    """ % filler)
    assert oracle_memory_pairs(trace, max_distance=64) == []
    assert len(oracle_memory_pairs(trace, max_distance=128)) == 1


def test_consecutive_census_excludes_distant():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        addi x9, x9, 1
        ld x5, 8(x1)
        ecall
    """)
    assert consecutive_memory_pairs(trace) == []
    assert len(oracle_memory_pairs(trace)) == 1


def test_other_pairs_census():
    trace = trace_of("""
        lui x5, 0x12345
        addiw x5, x5, 0x67
        slli x6, x7, 3
        add x6, x6, x8
        ecall
    """)
    pairs = oracle_other_pairs(trace)
    assert [p.idiom for p in pairs] == ["lui_addi", "slli_add"]


def test_other_pairs_respect_exclusions():
    trace = trace_of("""
        lui x5, 0x12345
        addiw x5, x5, 0x67
        ecall
    """)
    memory_style_claim = oracle_other_pairs(trace)
    assert len(memory_style_claim) == 1
    excluded = oracle_other_pairs(trace, exclude=memory_style_claim)
    assert excluded == []


def test_analyze_trace_aggregates():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        lui x6, 0x12
        addiw x6, x6, 3
        ld x7, 16(x1)
        addi x9, x9, 1
        ld x8, 24(x1)
        ecall
    """)
    analysis = analyze_trace(trace)
    assert analysis.total_uops == len(trace)
    assert len(analysis.csf_pairs) >= 1
    assert len(analysis.ncsf_pairs) == 1
    assert 0 < analysis.memory_fused_uop_fraction < 1
    assert analysis.other_pairs[0].idiom == "lui_addi"
    histogram = analysis.contiguity_histogram()
    assert histogram[Contiguity.CONTIGUOUS] >= 1


# ---- consecutive fusion window ----------------------------------------------

def adjacent_kinds(window, trace):
    """``match_kind`` of every adjacent pair that fuses, in order."""
    uops = list(trace)
    kinds = [window.match_kind(head, tail)
             for head, tail in zip(uops, uops[1:])]
    return [kind for kind in kinds if kind is not None]


def test_window_finds_adjacent_pairs():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        lui x6, 0x12
        addiw x6, x6, 3
        ecall
    """)
    assert adjacent_kinds(ConsecutiveFusionWindow(), trace) \
        == [("load_pair", True), ("lui_addi", False)]


def test_analyze_trace_is_memoised_per_trace_and_parameters():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        addi x9, x9, 1
        ld x5, 8(x1)
        ecall
    """)
    census = analyze_trace(trace)
    assert analyze_trace(trace) is census
    assert analyze_trace(trace, granularity=64, max_distance=64) is census
    assert analyze_trace(trace, granularity=32) is not census
    assert analyze_trace(trace, max_distance=1) is not census
    assert analyze_trace(trace, max_distance=1) \
        is analyze_trace(trace, max_distance=1)
    assert len(analyze_trace(trace, max_distance=1).ncsf_pairs) == 0
    assert len(census.ncsf_pairs) == 1


def test_window_memory_only():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        lui x6, 0x12
        addiw x6, x6, 3
        ecall
    """)
    window = ConsecutiveFusionWindow(fuse_others=False)
    assert adjacent_kinds(window, trace) == [("load_pair", True)]


def test_window_others_only():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        lui x6, 0x12
        addiw x6, x6, 3
        ecall
    """)
    window = ConsecutiveFusionWindow(fuse_memory=False)
    assert adjacent_kinds(window, trace) == [("lui_addi", False)]


def test_window_for_mode():
    assert ConsecutiveFusionWindow.for_mode(FusionMode.NONE) is None
    riscv = ConsecutiveFusionWindow.for_mode(FusionMode.RISCV)
    assert riscv.fuse_others and not riscv.fuse_memory
    csf = ConsecutiveFusionWindow.for_mode(FusionMode.CSF_SBR)
    assert csf.fuse_memory and not csf.fuse_others
    helios = ConsecutiveFusionWindow.for_mode(FusionMode.HELIOS)
    assert helios.fuse_memory and helios.fuse_others


def test_window_greedy_no_overlap():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        ld x6, 16(x1)
        ecall
    """)
    # Decode pairs greedily: (ld0, ld1) fuse; ld2 is left unfused.
    clog = CommitLog()
    config = ProcessorConfig().with_mode(FusionMode.CSF_SBR)
    PipelineCore(trace, config, commit_log=clog).run()
    loads = [uop.seq for uop in trace if uop.is_load]
    assert clog.fused_pairs() == [(loads[0], loads[1], "csf")]


# ---------------------------------------------- fast scan == reference --

# The shipping oracle scan is a flattened, taint-bookkeeping
# reformulation of ``tests/oracle_reference.py``; the contract is
# byte-identical output (pairs, in order, with identical census
# accounting) for every catalog trace and every flag: the unrestricted
# pairing, Figure 4's consecutive same-base census, each of its two
# flags alone, and the two configuration knobs.

_FLAG_SHAPES = [
    {},
    {"consecutive_only": True, "require_same_base": True},
    {"consecutive_only": True},
    {"require_same_base": True},
    {"max_distance": 4},
    {"granularity": 16, "require_same_base": True},
]


def _pair_key(p):
    return (p.head_seq, p.tail_seq, p.idiom, p.contiguity,
            p.base_kind, p.symmetric)


def test_fast_oracle_matches_reference_all_catalog_workloads():
    from tests.oracle_reference import oracle_memory_pairs_reference
    from repro.workloads import build_workload, workload_names

    for name in workload_names():
        trace = build_workload(name)
        ref_census, fast_census = {}, {}
        ref = oracle_memory_pairs_reference(trace,
                                            reason_counts=ref_census)
        fast = oracle_memory_pairs(trace, reason_counts=fast_census)
        assert [_pair_key(p) for p in fast] \
            == [_pair_key(p) for p in ref], name
        assert fast_census == ref_census, name


def test_fast_oracle_matches_reference_every_flag_shape():
    from tests.oracle_reference import oracle_memory_pairs_reference
    from repro.workloads import build_workload

    for name in ("605.mcf", "657.xz_2", "rijndael"):
        trace = build_workload(name)
        for flags in _FLAG_SHAPES:
            ref_census, fast_census = {}, {}
            ref = oracle_memory_pairs_reference(
                trace, reason_counts=ref_census, **flags)
            fast = oracle_memory_pairs(
                trace, reason_counts=fast_census, **flags)
            assert [_pair_key(p) for p in fast] \
                == [_pair_key(p) for p in ref], (name, flags)
            assert fast_census == ref_census, (name, flags)


@settings(max_examples=25, deadline=None)
@given(stressful_programs())
def test_fast_oracle_matches_reference_on_stressful_programs(source):
    """Fences mid-window, store bursts and byte loads straddling a
    store: the window exits the catalog rarely reaches."""
    from tests.oracle_reference import oracle_memory_pairs_reference

    trace = trace_of(source)
    for flags in _FLAG_SHAPES:
        ref_census, fast_census = {}, {}
        ref = oracle_memory_pairs_reference(
            trace, reason_counts=ref_census, **flags)
        fast = oracle_memory_pairs(trace, reason_counts=fast_census, **flags)
        assert [_pair_key(p) for p in fast] \
            == [_pair_key(p) for p in ref], flags
        assert list(fast_census.items()) == list(ref_census.items()), flags


def test_other_pairs_match_reference_all_catalog_workloads():
    from tests.oracle_reference import oracle_other_pairs_reference
    from repro.workloads import build_workload, workload_names

    for name in workload_names():
        trace = build_workload(name)
        claimed = consecutive_memory_pairs(trace)
        for exclude in (None, claimed):
            assert oracle_other_pairs(trace, exclude=exclude) \
                == oracle_other_pairs_reference(trace, exclude=exclude), \
                (name, exclude is None)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_census_scans_run_with_gc_paused(monkeypatch, enabled):
    from repro.fusion import oracle

    inside = []

    def watched(scan):
        def run(*args, **kwargs):
            inside.append((scan.__name__, gc.isenabled()))
            return scan(*args, **kwargs)
        return run

    for name in ("oracle_memory_pairs", "oracle_other_pairs"):
        monkeypatch.setattr(oracle, name, watched(getattr(oracle, name)))
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        addi x9, x9, 1
        ld x5, 8(x1)
        lui x6, 0x12
        addiw x6, x6, 3
        ecall
    """)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        gc.collect()
        full_collections = gc.get_stats()[2]["collections"]
        analysis = oracle.analyze_trace(trace)
        assert gc.isenabled() is enabled
        assert gc.get_stats()[2]["collections"] == full_collections
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert len(analysis.memory_pairs) == 1
    assert inside == [("oracle_memory_pairs", False),
                      ("oracle_memory_pairs", False),
                      ("oracle_other_pairs", False)]
