"""End-to-end tests for the cycle-level pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FusionMode, ProcessorConfig, simulate, simulate_modes
from repro.isa import assemble, run_program
from repro.obs import CommitLog
from repro.perf.golden import GOLDEN_MAX_UOPS
from repro.pipeline.core import PipelineCore
from repro.workloads import build_workload


def run_mode(source, mode, **config_kwargs):
    config = ProcessorConfig(**config_kwargs).with_mode(mode)
    return simulate(assemble(source), config)


SIMPLE_LOOP = """
    li a0, 0x20000
    li a1, 50
loop:
    ld a2, 0(a0)
    ld a3, 8(a0)
    add a4, a2, a3
    sd a4, 16(a0)
    addi a0, a0, 8
    addi a1, a1, -1
    bnez a1, loop
    ecall
"""


def test_all_instructions_commit():
    trace = run_program(assemble(SIMPLE_LOOP))
    result = simulate(trace)
    assert result.instructions == len(trace)
    assert 0 < result.ipc <= ProcessorConfig().issue_width


def test_pipeline_drains_completely():
    core = PipelineCore(run_program(assemble(SIMPLE_LOOP)), ProcessorConfig())
    core.run()
    assert not core.rob
    assert core.iq_count == 0
    assert not core.aq
    assert not core.rename_latch


def test_no_fusion_mode_never_fuses():
    result = run_mode(SIMPLE_LOOP, FusionMode.NONE)
    assert result.stats.fused_pairs == 0


def test_csf_sbr_fuses_memory_only():
    source = """
        li a0, 0x20000
        li a1, 100
    loop:
        ld a2, 0(a0)
        ld a3, 8(a0)
        lui a4, 0x12
        addiw a4, a4, 5
        add a5, a2, a3
        addi a0, a0, 16
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """
    result = run_mode(source, FusionMode.CSF_SBR)
    assert result.stats.csf_memory_pairs > 0
    assert result.stats.other_pairs == 0
    riscv = run_mode(source, FusionMode.RISCV)
    assert riscv.stats.csf_memory_pairs == 0
    assert riscv.stats.other_pairs > 0
    both = run_mode(source, FusionMode.RISCV_PP)
    assert both.stats.csf_memory_pairs > 0
    assert both.stats.other_pairs > 0


def test_fused_pairs_commit_both_instructions():
    trace = run_program(assemble(SIMPLE_LOOP))
    result = simulate(trace, ProcessorConfig().with_mode(FusionMode.CSF_SBR))
    assert result.instructions == len(trace)
    assert result.stats.uops_committed \
        == len(trace) - result.stats.fused_pairs


NCSF_LOOP = """
    li a0, 0x20000
    li a1, 400
    li s0, 0
loop:
    ld a2, 0(a0)
    add t0, s0, a2
    xor t1, t0, a1
    ld a3, 8(a0)
    add s0, t1, a3
    andi a0, a0, 0xfff
    addi a0, a0, 16
    li t2, 0x20000
    add a0, a0, t2
    addi a1, a1, -1
    bnez a1, loop
    ecall
"""


def test_helios_learns_ncsf_pairs():
    result = run_mode(NCSF_LOOP, FusionMode.HELIOS)
    assert result.stats.ncsf_memory_pairs > 100
    assert result.stats.fp_fusions_attempted > 0
    assert result.fp_accuracy_pct > 95.0
    assert result.instructions == len(run_program(assemble(NCSF_LOOP)))


def test_helios_mean_distance_tracked():
    result = run_mode(NCSF_LOOP, FusionMode.HELIOS)
    assert 2.0 <= result.mean_ncsf_distance <= 8.0  # catalyst of 2 ALU ops


def test_oracle_fuses_at_least_as_many_ncsf():
    helios = run_mode(NCSF_LOOP, FusionMode.HELIOS)
    oracle = run_mode(NCSF_LOOP, FusionMode.ORACLE)
    total_h = helios.stats.csf_memory_pairs + helios.stats.ncsf_memory_pairs
    total_o = oracle.stats.csf_memory_pairs + oracle.stats.ncsf_memory_pairs
    assert total_o >= total_h


def test_helios_deadlock_pairs_unfused_not_hung():
    # Pointer chase within one cache line: the UCH will discover
    # same-line pairs, but the tail always depends on the head.  The
    # deadlock machinery must unfuse every attempt and the program must
    # still complete.
    source = """
        li a0, 0x20000
        li a1, 300
        li t1, 0x20000
    outer:
        mv a2, a0
        ld a2, 0(a2)
        add a2, a2, t1
        ld a2, 8(a2)
        add a2, a2, t1
        ld a2, 16(a2)
        addi a1, a1, -1
        bnez a1, outer
        ecall
    .data 0x20000
        .dword 8, 0, 16, 0, 24, 0, 0, 0
    """
    trace = run_program(assemble(source))
    result = simulate(trace, ProcessorConfig().with_mode(FusionMode.HELIOS))
    assert result.instructions == len(trace)


def test_fusion_misprediction_flushes_and_recovers():
    # Train on same-line pairs through a shared body (same PCs), then
    # move the second base register far away: the pair now spans two
    # distant lines -> case 5 repair (flush from the tail nucleus).
    source = """
        li a0, 0x20000
        addi a5, a0, 8
        li a1, 200
        li s1, 0
    phase1:
        jal ra, body
        addi a1, a1, -1
        bnez a1, phase1
        li a1, 60
        li a5, 0x40000
    phase2:
        jal ra, body
        addi a1, a1, -1
        bnez a1, phase2
        ecall
    body:
        ld a2, 0(a0)
        add s1, s1, a1
        ld a3, 0(a5)
        add s1, s1, a2
        add s1, s1, a3
        ret
    """
    trace = run_program(assemble(source))
    result = simulate(trace, ProcessorConfig().with_mode(FusionMode.HELIOS))
    assert result.instructions == len(trace)
    # Phase 2 has the same tail PC but a far-away address at least once
    # before confidence resets.
    assert result.stats.fp_address_mispredictions >= 1
    assert result.stats.fusion_flushes >= 1
    assert result.fp_accuracy_pct < 100.0


def test_memory_order_violation_flush_and_storeset_training():
    # The store's address resolves through a slow divide chain (but
    # always equals a0); the younger load reads 0(a0) directly, so it
    # issues speculatively past the unresolved store -> violation.
    source = """
        li a0, 0x20000
        li a1, 120
    loop:
        div t1, a1, a1
        addi t1, t1, -1
        add t2, a0, t1
        sd a1, 0(t2)
        ld a5, 0(a0)
        add s1, s1, a5
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """
    trace = run_program(assemble(source))
    core = PipelineCore(trace, ProcessorConfig())
    stats = core.run()
    assert stats.instructions == len(trace)
    assert stats.order_violation_flushes >= 1
    store = next(u for u in trace if u.is_store)
    load = next(u for u in trace if u.is_load)
    assert core.storeset.same_set(load.pc, store.pc)
    # After training, later iterations wait instead of violating.
    assert stats.order_violation_flushes < 60


def test_branch_mispredictions_counted():
    # Data-dependent branch on a pseudo-random bit.
    source = """
        li a1, 300
        li s0, 12345
        li t1, 1103515245
        li t2, 12345
        li s1, 0
    loop:
        mul s0, s0, t1
        add s0, s0, t2
        srli t3, s0, 16
        andi t3, t3, 1
        beqz t3, skip
        addi s1, s1, 1
    skip:
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """
    trace = run_program(assemble(source))
    result = simulate(trace)
    assert result.stats.branch_mispredictions > 10
    assert result.instructions == len(trace)


def test_sq_pressure_creates_dispatch_stalls():
    source = """
        li a0, 0x20000
        li a2, 0x80000
        li a1, 400
    loop:
        ld a3, 0(a2)
        sd a3, 0(a0)
        sd a3, 8(a0)
        sd a3, 16(a0)
        sd a3, 24(a0)
        addi a0, a0, 32
        andi a0, a0, 0x3fff
        li t1, 0x20000
        add a0, a0, t1
        slli t2, a1, 6
        add a2, a2, t2
        li t3, 0xffff
        and a2, a2, t3
        li t4, 0x80000
        add a2, a2, t4
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """
    baseline = run_mode(source, FusionMode.NONE)
    assert baseline.stats.dispatch_stall_sq > 0
    fused = run_mode(source, FusionMode.CSF_SBR)
    assert fused.ipc > baseline.ipc


def test_store_to_load_forwarding_used():
    source = """
        li a0, 0x20000
        li a1, 100
    loop:
        sd a1, 0(a0)
        addi t0, a1, 3
        mul t1, t0, a1
        ld a2, 0(a0)
        add s1, s1, a2
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """
    core = PipelineCore(run_program(assemble(source)), ProcessorConfig())
    core.run()
    assert core.lsu.forwards > 0


def test_fusion_mode_ordering_on_fuseable_workload():
    results = simulate_modes(assemble(SIMPLE_LOOP))
    # This tiny kernel reloads freshly stored bytes every iteration, so
    # fusing couples forwarded loads with streaming ones; fusion may be
    # mildly negative here but must stay in a sane band and commit the
    # same work (the performance ordering over the catalog is checked by
    # tools/check_claims.py).
    assert results["CSF-SBR"].ipc >= results["NoFusion"].ipc * 0.90
    assert results["OracleFusion"].ipc >= results["NoFusion"].ipc * 0.90


@pytest.mark.parametrize("workload", ["657.xz_1", "605.mcf", "dijkstra"])
def test_fast_forward_matches_the_cycle_by_cycle_loop(workload, monkeypatch):
    """Skipping provably idle cycles changes no counter.  An armed commit
    log pins the core to the cycle-by-cycle loop."""
    skipped = []
    fast_forward = PipelineCore._fast_forward

    def counting(core, limit, stalls_before):
        before = core.now
        fast_forward(core, limit, stalls_before)
        skipped.append(core.now - before)

    monkeypatch.setattr(PipelineCore, "_fast_forward", counting)
    trace = build_workload(workload, max_uops=GOLDEN_MAX_UOPS)
    for mode in FusionMode:
        config = ProcessorConfig().with_mode(mode)
        skipped.clear()
        fast = PipelineCore(trace, config).run().to_dict()
        assert sum(skipped) > 0, mode
        full = PipelineCore(trace, config, commit_log=CommitLog()).run()
        assert full.to_dict() == fast, mode
        assert sum(skipped) < fast["cycles"], mode


def test_instruction_counts_identical_across_modes():
    results = simulate_modes(assemble(NCSF_LOOP))
    counts = {r.instructions for r in results.values()}
    assert len(counts) == 1


def test_cycle_limit_raises():
    trace = run_program(assemble(SIMPLE_LOOP))
    core = PipelineCore(trace, ProcessorConfig())
    with pytest.raises(RuntimeError, match="converge"):
        core.run(max_cycles=3)


@st.composite
def random_programs(draw):
    """Small random (but valid) programs over a scratch buffer."""
    body = []
    n_blocks = draw(st.integers(1, 4))
    for _ in range(n_blocks):
        kind = draw(st.sampled_from(["mem", "alu", "pair", "mul"]))
        if kind == "mem":
            off = draw(st.integers(0, 12)) * 8
            body.append("ld a2, %d(a0)" % off)
            body.append("sd a2, %d(a0)" % (off + 128))
        elif kind == "pair":
            off = draw(st.integers(0, 12)) * 8
            body.append("ld a3, %d(a0)" % off)
            body.append("ld a4, %d(a0)" % (off + 8))
        elif kind == "alu":
            body.append("add s1, s1, a2")
            body.append("xor s2, s1, a3")
        else:
            body.append("mul s3, s1, s2")
    source = """
        li a0, 0x20000
        li a1, %d
    loop:
        %s
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """ % (draw(st.integers(3, 20)), "\n        ".join(body))
    return source


@settings(max_examples=15, deadline=None)
@given(random_programs(), st.sampled_from(list(FusionMode)))
def test_property_every_mode_commits_everything(source, mode):
    """Invariant: any mode commits exactly the trace's instructions."""
    trace = run_program(assemble(source))
    result = simulate(trace, ProcessorConfig().with_mode(mode))
    assert result.instructions == len(trace)
    assert result.stats.uops_committed == len(trace) - result.stats.fused_pairs
