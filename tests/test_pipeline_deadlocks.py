"""Regression tests for memory-carried fusion deadlocks.

The oracle and legality analyzer reject these shapes statically, but
the Helios fusion predictor cannot see dataflow — it only predicts a
distance from a PC — so the pipeline must *repair* a mispredicted
fusion whose catalyst depends on the pair itself:

* shape A — store pair whose tail data is produced by a catalyst load
  that must forward from the pair (``WAIT_STORE_DATA`` self-dependence
  repair in ``_execute_load``);
* shape B — store pair with a catalyst load partially overlapping the
  head's bytes (``WAIT_STORE_DRAIN`` against a younger tail is always
  circular: the pair's commit group contains the load);
* shape C — load pair whose tail address transitively consumes the
  head's loaded value through catalyst ALU ops (invisible to the LSQ;
  caught by the commit watchdog).

Each test forces the fusion with a predictor that always predicts the
deadlocking distance and asserts the machine converges, commits every
µ-op, and charges a ``deadlock_unfusions`` repair.
"""

import pytest

from repro.analysis.legality import Reason
from repro.analysis.sanitizer import Sanitizer
from repro.config import FusionMode, ProcessorConfig
from repro.fusion.oracle import oracle_rejection_census
from repro.isa import assemble, run_program
from repro.pipeline.core import PipelineCore
from repro.predictors.fusion_predictor import (
    FusionPrediction,
    FusionPredictor,
)


class ForcedFP(FusionPredictor):
    """Predicts a fixed head distance for chosen tail PCs."""

    def __init__(self, distances):
        super().__init__()
        self._distances = dict(distances)

    def predict(self, pc, ghr):
        distance = self._distances.get(pc)
        if distance is None:
            return None
        return FusionPrediction(pc=pc, ghr=ghr, distance=distance,
                                used_global=False)


def trace_of(source):
    return run_program(assemble(source))


def run_forced(trace, head_seq, tail_seq):
    """Run HELIOS with a predictor forcing fusion (head, tail)."""
    config = ProcessorConfig(fusion_mode=FusionMode.HELIOS)
    core = PipelineCore(trace, config, sanitizer=Sanitizer())
    core.fp = ForcedFP({trace.uops[tail_seq].pc: tail_seq - head_seq})
    stats = core.run()
    return core, stats


SHAPE_A = """
    li x1, 0x20000
    li x9, 7
    sd x9, 0(x1)
    ld x5, 0(x1)
    sd x5, 8(x1)
    ecall
"""

SHAPE_B = """
    li x1, 0x20000
    sd x0, 0(x1)
    ld x5, 4(x1)
    sd x0, 16(x1)
    ecall
"""

SHAPE_C_REG = """
    li x1, 0x20000
    li x9, 8
    ld x4, 0(x1)
    add x5, x4, x9
    add x6, x5, x1
    ld x7, 0(x6)
    ecall
"""

SHAPE_C_MEM = """
    li x1, 0x20000
    ld x4, 0(x1)
    sd x4, 64(x1)
    ld x6, 64(x1)
    add x6, x6, x1
    ld x7, 8(x6)
    ecall
"""


def stores_and_loads(trace):
    return ([u.seq for u in trace.uops if u.is_store],
            [u.seq for u in trace.uops if u.is_load])


def test_shape_a_store_data_self_dependence_repaired():
    trace = trace_of(SHAPE_A)
    stores, _loads = stores_and_loads(trace)
    core, stats = run_forced(trace, stores[0], stores[1])
    assert stats.instructions == len(trace)
    assert stats.deadlock_unfusions >= 1
    assert stats.fusion_flushes >= 1


def test_shape_b_catalyst_load_overlap_repaired():
    trace = trace_of(SHAPE_B)
    stores, _loads = stores_and_loads(trace)
    core, stats = run_forced(trace, stores[0], stores[1])
    assert stats.instructions == len(trace)
    assert stats.deadlock_unfusions >= 1


def test_shape_c_register_chain_unfused_by_deadlock_tags():
    # The paper's NCS deadlock tags see register-carried dependences:
    # the fusion is rejected at rename, no repair machinery needed.
    trace = trace_of(SHAPE_C_REG)
    _stores, loads = stores_and_loads(trace)
    core, stats = run_forced(trace, loads[0], loads[1])
    assert stats.instructions == len(trace)
    assert stats.fp_legality_unfusions >= 1
    assert stats.deadlock_unfusions == 0


def test_shape_c_memory_chain_caught_by_watchdog():
    # The same chain carried through memory (store + load back) is
    # invisible to the register-only deadlock tags *and* to the LSQ
    # repairs (the blocking store is not the fused pair): only the
    # commit watchdog can break it.
    trace = trace_of(SHAPE_C_MEM)
    _stores, loads = stores_and_loads(trace)
    core, stats = run_forced(trace, loads[0], loads[2])
    assert stats.instructions == len(trace)
    assert stats.deadlock_unfusions >= 1
    # The watchdog path is slow by design (1024 idle cycles) but must
    # still converge promptly afterwards.
    assert core.now < 5000


@pytest.mark.parametrize("source,reason", [
    (SHAPE_A, Reason.DEADLOCK_DEPENDENCE),
    (SHAPE_B, Reason.CATALYST_LOAD_OVERLAP),
    (SHAPE_C_REG, Reason.DEADLOCK_DEPENDENCE),
    (SHAPE_C_MEM, Reason.DEADLOCK_DEPENDENCE),
])
def test_oracle_rejects_deadlock_shapes_with_reason(source, reason):
    census = oracle_rejection_census(trace_of(source))
    assert census.get(reason, 0) >= 1


SAME_DEST = """
    li x1, 0x20000
    ld x4, 0(x1)
    ld x4, 8(x1)
    ecall
"""


def test_same_dest_load_pair_never_fuses():
    # Found by the differential checker on 602.gcc/657.xz/rsynth/susan:
    # the Helios decode path used to accept a predicted load pair whose
    # nucleii share the destination register, which the RAT cannot
    # represent (the head's physical register would stay architected
    # after the tail's in-order write).  Rejected at _find_aq_head now.
    trace = trace_of(SAME_DEST)
    _stores, loads = stores_and_loads(trace)
    core, stats = run_forced(trace, loads[0], loads[1])
    assert stats.instructions == len(trace)
    assert stats.ncsf_memory_pairs == 0
    assert stats.fp_predictions_without_head >= 1
    census = oracle_rejection_census(trace)
    assert census.get(Reason.SAME_DEST, 0) >= 1


@pytest.mark.parametrize("source", [SHAPE_A, SHAPE_B,
                                    SHAPE_C_REG, SHAPE_C_MEM])
def test_oracle_mode_never_needs_repairs(source):
    trace = trace_of(source)
    config = ProcessorConfig(fusion_mode=FusionMode.ORACLE)
    core = PipelineCore(trace, config, sanitizer=Sanitizer())
    stats = core.run()
    assert stats.instructions == len(trace)
    assert stats.deadlock_unfusions == 0
