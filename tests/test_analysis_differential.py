"""Differential checker: oracle/pipeline/interpreter cross-validation."""

import pytest

from repro.analysis.differential import (
    _compare_streams,
    analyze_trace,
    analyze_workload,
    check_pipeline,
)
from repro.analysis.legality import LegalityAnalyzer, analyze_trace_legality
from repro.config import FusionMode, ProcessorConfig
from repro.isa import assemble, run_program
from repro.isa.interp import Interpreter
from repro.isa.trace import Trace
from repro.pipeline.core import CoreStats
from tests import test_pipeline_deadlocks as deadlocks


def trace_of(source):
    return run_program(assemble(source))


FUSEABLE = """
    li x1, 0x20000
    ld x4, 0(x1)
    ld x5, 8(x1)
    sd x4, 16(x1)
    sd x5, 24(x1)
    ecall
"""


def test_analyze_workload_clean_on_catalog_sample():
    report = analyze_workload(
        "dijkstra", max_uops=2000,
        modes=[FusionMode.NONE, FusionMode.HELIOS, FusionMode.ORACLE])
    assert report.ok, [d.detail for d in report.divergences]
    assert len(report.checks) == 3
    for check in report.checks:
        assert check.ok and check.stats.cycles > 0
    rendered = report.render()
    assert "dijkstra" in rendered and "no divergences" in rendered
    data = report.to_dict()
    assert data["ok"] is True
    # Each mode carries the run's full counters.
    for mode, check in zip(data["modes"], report.checks):
        assert mode["stats"] == check.stats.to_dict()
        assert set(mode["stats"]) == set(CoreStats().to_dict())
    assert data["legality"]["legal_pairs"] == len(report.legality.legal)


def test_check_pipeline_commits_every_uop():
    trace = trace_of(FUSEABLE)
    legality = analyze_trace_legality(trace)
    check = check_pipeline(
        trace, ProcessorConfig(fusion_mode=FusionMode.ORACLE), legality)
    assert check.ok
    assert check.committed_pairs >= 1
    # A checked run checks every cycle (no fast-forward under the
    # sanitizer).
    assert check.sanitizer_checks == check.stats.cycles > 0


def test_check_pipeline_flags_illegal_committed_pair():
    # Starve the legality report: every committed fused pair must then
    # be reported as a divergence.
    trace = trace_of(FUSEABLE)
    legality = analyze_trace_legality(trace)
    starved = type(legality)(
        trace_name=legality.trace_name, uops=legality.uops,
        granularity=legality.granularity,
        max_distance=legality.max_distance,
        rebinding=legality.rebinding, legal=frozenset(), candidates=0,
        _analyzer=LegalityAnalyzer(trace))
    check = check_pipeline(
        trace, ProcessorConfig(fusion_mode=FusionMode.ORACLE), starved)
    assert not check.ok
    assert any(d.kind == "fused-illegal" for d in check.divergences)


def test_check_pipeline_without_sanitizer():
    trace = trace_of(FUSEABLE)
    legality = analyze_trace_legality(trace)
    check = check_pipeline(
        trace, ProcessorConfig(), legality, sanitize=False)
    assert check.ok and check.sanitizer_checks == 0


def test_compare_streams_flags_length_and_content():
    trace = trace_of(FUSEABLE)
    truncated = Trace(name=trace.name, uops=trace.uops[:-1])
    assert any(d.kind == "replay-stream"
               for d in _compare_streams(trace, truncated))
    assert _compare_streams(trace, trace) == []


def test_analyze_trace_runs_one_oracle_scan(monkeypatch):
    """The rejection census's scan also fills the pair memo."""
    from repro.fusion import oracle

    scans = []
    scan = oracle.oracle_memory_pairs

    def counted(*args, **kwargs):
        scans.append(kwargs.get("reason_counts") is not None)
        return scan(*args, **kwargs)

    monkeypatch.setattr(oracle, "oracle_memory_pairs", counted)
    report = analyze_trace(trace_of(FUSEABLE),
                           modes=[FusionMode.HELIOS, FusionMode.ORACLE])
    assert scans == [True]
    assert report.ok
    assert report.oracle_pairs == 2
    assert report.oracle_census == {}


# A Helios span misprediction (repair case 5): the two loads are 128
# bytes apart, more than one access-granularity region.
SPAN_MISPREDICTION = """
    li x1, 0x20000
    ld x4, 0(x1)
    addi x9, x9, 1
    ld x5, 128(x1)
    ecall
"""

# A Helios load pair whose tail reads the bytes of a store inside the
# pair's own catalyst: the store drains only after the pair commits, so
# waiting would deadlock.
CATALYST_STORE = """
    li x1, 0x20000
    ld x4, 0(x1)
    sd x9, 8(x1)
    ld x5, 8(x1)
    ecall
"""


@pytest.mark.parametrize("source,kind,nth,repair", [
    (SPAN_MISPREDICTION, "load", (0, 1), "span"),
    (CATALYST_STORE, "load", (0, 1), "deadlock"),
    (deadlocks.SHAPE_A, "store", (0, 1), "deadlock"),
    (deadlocks.SHAPE_B, "store", (0, 1), "deadlock"),
    (deadlocks.SHAPE_C_REG, "load", (0, 1), "legality"),
    (deadlocks.SHAPE_C_MEM, "load", (0, 2), "deadlock"),
], ids=["case5-span", "catalyst-store", "shape-a", "shape-b", "shape-c-reg",
        "shape-c-mem"])
def test_forced_helios_repairs_keep_committed_state_exact(
        monkeypatch, source, kind, nth, repair):
    """Every repair a forced fusion predictor can drive Helios into
    leaves the committed state bit-exact against the interpreter, and
    is counted as its kind.

    Shape C-reg is unfused at rename, before the pair holds registers,
    so it counts a legality unfusion and flushes nothing.
    """
    program = assemble(source)
    interp = Interpreter(program, record_stores=True)
    trace = interp.run()
    seqs = [uop.seq for uop in trace
            if (uop.is_load if kind == "load" else uop.is_store)]
    head, tail = seqs[nth[0]], seqs[nth[1]]
    monkeypatch.setattr(
        "repro.pipeline.core.make_fusion_predictor",
        lambda _config: deadlocks.ForcedFP(
            {trace.uops[tail].pc: tail - head}))
    report = analyze_trace(
        trace, modes=[FusionMode.HELIOS],
        store_values=interp.store_values, program=program,
        expected_memory=interp.memory.snapshot())
    (check,) = report.checks
    assert check.ok, [str(d) for d in check.divergences]
    stats = check.stats
    if repair == "legality":
        assert stats.fp_legality_unfusions >= 1
    else:
        assert stats.fusion_flushes >= 1
    if repair == "span":
        assert stats.fp_address_mispredictions >= 1
    if repair == "deadlock":
        assert stats.deadlock_unfusions >= 1
        assert stats.fp_address_mispredictions == 0
