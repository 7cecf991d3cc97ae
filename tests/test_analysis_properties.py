"""Property tests for the analysis layer.

Two containment/equivalence properties over arbitrary programs:

1. ``oracle_pairs ⊆ legal_pairs`` — the optimized greedy oracle never
   pairs outside the exhaustive analyzer's provably-legal set;
2. full differential cleanliness — for every fusion mode the pipeline
   commits every µ-op, every committed fused pair is statically legal,
   and the drain-replayed memory image bit-matches a fresh functional
   interpretation.

Both run under hypothesis on synthesized kernels, and the second also
sweeps every catalog workload (truncated) in every fusion mode.
"""

import pytest
from hypothesis import given, settings

from repro.analysis.differential import analyze_trace, analyze_workload
from repro.analysis.legality import analyze_trace_legality
from repro.config import FusionMode, ProcessorConfig
from repro.fusion.oracle import oracle_memory_pairs
from repro.isa import assemble
from repro.isa.interp import Interpreter
from repro.workloads.catalog import workload_names

from tests.test_pipeline_properties import stressful_programs


@settings(max_examples=15, deadline=None)
@given(stressful_programs())
def test_oracle_pairs_subset_of_legal(source):
    program = assemble(source)
    trace = Interpreter(program).run()
    report = analyze_trace_legality(trace)
    for pair in oracle_memory_pairs(trace):
        assert report.is_legal(pair.head_seq, pair.tail_seq), \
            "oracle pair (%d, %d) outside legal set: %s" % (
                pair.head_seq, pair.tail_seq,
                report.explain(pair.head_seq, pair.tail_seq).describe())


@settings(max_examples=8, deadline=None)
@given(stressful_programs())
def test_differential_clean_on_synthesized_kernels(source):
    program = assemble(source)
    interp = Interpreter(program, record_stores=True)
    trace = interp.run()
    report = analyze_trace(
        trace, config=ProcessorConfig(),
        store_values=interp.store_values, program=program,
        expected_memory=interp.memory.snapshot())
    assert report.ok, [d.detail for d in report.divergences]
    assert len(report.checks) == len(FusionMode)
    for check in report.checks:
        assert check.sanitizer_checks == check.stats.cycles > 0


@pytest.mark.parametrize("name", workload_names())
def test_differential_clean_on_catalog_workload(name):
    report = analyze_workload(name, max_uops=1000)
    assert report.ok, [d.detail for d in report.divergences]
    assert len(report.checks) == len(FusionMode)
    for check in report.checks:
        assert check.sanitizer_checks == check.stats.cycles > 0
