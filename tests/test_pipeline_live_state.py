"""A run holds its trace, its oracle results and the in-flight window.

Each µ-op drops its producer edges and wait list when it commits or is
squashed, and the rename undo log is trimmed to the window, so live
pipeline state does not grow with trace length and a finished run
leaves no reference cycle for the collector (DESIGN §4d, "Bounded live
state").
"""

import gc

import pytest

from repro.config import FusionMode, ProcessorConfig
from repro.isa import assemble, run_program
from repro.pipeline.core import PipelineCore
from repro.pipeline.uop import PipeUop
from repro.sampling.scale import build_scaled_workload
from tests.test_pipeline_deadlocks import (
    SHAPE_A,
    SHAPE_B,
    SHAPE_C_MEM,
    run_forced,
    stores_and_loads,
    trace_of,
)

#: Store-queue-bound showcase: Helios fuses, mispredicts and flushes.
WORKLOAD = "657.xz_1"


def live_pipe_uops() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is PipeUop)


def window_bound(config: ProcessorConfig) -> int:
    """Every µ-op that can be in flight, plus one RAT writer per
    architectural register."""
    return (config.rob_size + config.aq_size + 2 * config.dispatch_width
            + 64)


@pytest.mark.parametrize("length", [10_000, 40_000])
@pytest.mark.parametrize(
    "mode", [FusionMode.NONE, FusionMode.HELIOS, FusionMode.ORACLE],
    ids=lambda mode: mode.value)
def test_live_state_bounded_by_window_not_trace(mode, length):
    trace = build_scaled_workload(WORKLOAD, length)
    config = ProcessorConfig(fusion_mode=mode)
    bound = window_bound(config)
    baseline = live_pipe_uops()
    core = PipelineCore(trace, config)

    core.run(until_instructions=length // 2)
    assert live_pipe_uops() - baseline <= bound
    assert len(core.rename_unit._writer_log) <= 2 * config.rob_size

    stats = core.run()
    assert stats.instructions == len(trace)
    assert live_pipe_uops() - baseline <= bound
    assert len(core.rename_unit._writer_log) <= 2 * config.rob_size


def pipe_uops_left_in_cycles(simulate) -> int:
    """PipeUops that only a cycle collection could free after ``simulate()``.

    Runs with the collector off, then collects once under
    ``DEBUG_SAVEALL``, which keeps every object the collection found
    unreachable in ``gc.garbage``.  Refcounting frees everything else
    as soon as ``simulate`` drops its core.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    saved = len(gc.garbage)
    gc.disable()
    try:
        simulate()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sum(1 for obj in gc.garbage[saved:] if type(obj) is PipeUop)
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("mode", list(FusionMode),
                         ids=lambda mode: mode.value)
def test_run_leaves_no_reference_cycle(mode):
    trace = build_scaled_workload(WORKLOAD, 20_000)
    config = ProcessorConfig(fusion_mode=mode)
    runs = []
    leaked = pipe_uops_left_in_cycles(
        lambda: runs.append(PipelineCore(trace, config).run()))
    assert leaked == 0
    if mode is FusionMode.HELIOS:
        # NCSF pairs commit (head <-> catalyst edges) and a Case-5
        # repair flushes (the squash path).
        assert runs[0].ncsf_memory_pairs > 0
        assert runs[0].fusion_flushes > 0


@pytest.mark.parametrize("shape, kind, tail_index", [
    (SHAPE_A, "store", 1), (SHAPE_B, "store", 1), (SHAPE_C_MEM, "load", 2),
], ids=["store-data", "store-drain", "watchdog"])
def test_deadlock_repair_leaves_no_reference_cycle(shape, kind, tail_index):
    trace = trace_of(shape)
    stores, loads = stores_and_loads(trace)
    seqs = stores if kind == "store" else loads
    runs = []
    leaked = pipe_uops_left_in_cycles(lambda: runs.append(
        run_forced(trace, seqs[0], seqs[tail_index])[1]))
    assert runs[0].deadlock_unfusions >= 1
    assert leaked == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_gc_state_without_collecting(enabled):
    trace = run_program(assemble("""
        li a0, 0x20000
        li a1, 20
    loop:
        ld a2, 0(a0)
        sd a2, 8(a0)
        addi a0, a0, 8
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        # A full collection zeroes every generation's allocation count,
        # so no automatic full collection can start before the check.
        gc.collect()
        full_collections = gc.get_stats()[2]["collections"]
        PipelineCore(trace, ProcessorConfig()).run()
        assert gc.isenabled() is enabled
        assert gc.get_stats()[2]["collections"] == full_collections
    finally:
        (gc.enable if was_enabled else gc.disable)()
