"""Tests for the public simulation API, results, and storage budget."""

import dataclasses

import pytest

from repro import (
    FusionMode,
    ProcessorConfig,
    helios_storage_budget,
    ipc_uplift,
    paper_configurations,
    simulate,
    simulate_modes,
)
from repro.config import CacheConfig
from repro.isa import assemble, run_program
from repro.workloads import synthesize_trace

KERNEL = """
    li a0, 0x20000
    li a1, 40
loop:
    ld a2, 0(a0)
    ld a3, 8(a0)
    add a4, a2, a3
    sd a4, 128(a0)
    addi a0, a0, 16
    addi a1, a1, -1
    bnez a1, loop
    ecall
"""


def test_simulate_accepts_program_and_trace():
    program = assemble(KERNEL)
    from_program = simulate(program)
    from_trace = simulate(run_program(program))
    assert from_program.instructions == from_trace.instructions
    assert from_program.cycles == from_trace.cycles  # deterministic


def test_simulate_takes_no_cycle_cap():
    # A run always ends when its trace commits; only PipelineCore.run
    # keeps a cycle cap, for tests of the core itself.
    with pytest.raises(TypeError, match="max_cycles"):
        simulate(assemble(KERNEL), max_cycles=10)


def test_simulate_modes_covers_all_by_default():
    results = simulate_modes(assemble(KERNEL))
    assert set(results) == {mode.value for mode in FusionMode}


def test_ipc_uplift_normalizes_to_baseline():
    results = simulate_modes(assemble(KERNEL))
    uplift = ipc_uplift(results)
    assert uplift[FusionMode.NONE.value] == 1.0
    assert all(v > 0 for v in uplift.values())


def test_paper_configurations_order_and_modes():
    configs = paper_configurations()
    assert list(configs) == ["NoFusion", "RISCVFusion", "CSF-SBR",
                             "RISCVFusion++", "Helios", "OracleFusion"]
    assert configs["Helios"].fusion_mode is FusionMode.HELIOS


def test_config_with_mode_copies():
    base = ProcessorConfig()
    helios = base.with_mode(FusionMode.HELIOS)
    assert base.fusion_mode is FusionMode.NONE
    assert helios.fusion_mode is FusionMode.HELIOS
    assert helios.rob_size == base.rob_size


def test_fusion_mode_flags():
    assert not FusionMode.NONE.fuses_memory_pairs
    assert not FusionMode.RISCV.fuses_memory_pairs
    assert FusionMode.RISCV.fuses_other_idioms
    assert FusionMode.CSF_SBR.fuses_memory_pairs
    assert not FusionMode.CSF_SBR.fuses_other_idioms
    assert FusionMode.HELIOS.non_consecutive
    assert not FusionMode.RISCV_PP.non_consecutive


def test_cache_config_sets():
    cache = CacheConfig(size_bytes=48 * 1024, associativity=12, latency=5)
    assert cache.num_sets == 64


def test_sim_result_summary_text():
    result = simulate(assemble(KERNEL),
                      ProcessorConfig().with_mode(FusionMode.HELIOS))
    text = result.summary()
    assert "IPC" in text
    assert "coverage" in text  # Helios-only line


def test_sim_result_fused_percentages_consistent():
    result = simulate(assemble(KERNEL),
                      ProcessorConfig().with_mode(FusionMode.CSF_SBR))
    assert result.fused_uop_pct == pytest.approx(
        result.memory_fused_uop_pct + result.other_fused_uop_pct)
    assert 0 <= result.fused_uop_pct <= 100


def test_eligible_pair_counting():
    trace = run_program(assemble("""
        li x1, 0x20000
        ld x4, 0(x1)
        addi x9, x9, 1
        ld x5, 8(x1)
        ld x6, 16(x1)
        ld x7, 24(x1)
        ecall
    """))
    # (x4,x5) is NCSF (needs prediction); (x6,x7) is static CSF.
    result = simulate(trace, ProcessorConfig().with_mode(FusionMode.HELIOS))
    assert result.eligible_predictive_pairs == 1


def test_synthetic_trace_runs_through_pipeline():
    trace = synthesize_trace(length=3000, seed=11)
    result = simulate(trace, ProcessorConfig().with_mode(FusionMode.HELIOS))
    assert result.instructions == len(trace)


# ---- storage budget ----------------------------------------------------------

def test_storage_budget_totals():
    budget = helios_storage_budget()
    assert budget.total_bits == sum(budget.items.values())
    assert budget.predictor_bits == 73728 + 280
    assert budget.ncsf_bits + budget.predictor_bits \
        + budget.flush_pointer_bits == budget.total_bits


def test_storage_budget_scales_with_config():
    small = dataclasses.replace(ProcessorConfig(), rob_size=128,
                                iq_size=64, aq_size=64)
    budget = helios_storage_budget(small)
    default = helios_storage_budget()
    assert budget.items["rob_commit_group_bits"] == 256
    assert budget.items["flush_pointers"] < default.items["flush_pointers"]
    assert budget.items["aq_nucleus_bits_and_tags"] \
        < default.items["aq_nucleus_bits_and_tags"]


def test_storage_budget_report_renders():
    text = helios_storage_budget().report()
    assert "grand total" in text
    assert "fusion_predictor" in text


# ---- robustness ----------------------------------------------------------------

def test_tiny_config_still_completes():
    """A deliberately starved machine must still commit everything."""
    config = dataclasses.replace(
        ProcessorConfig(), rob_size=80, iq_size=70, lq_size=68, sq_size=66,
        int_prf_size=112, fp_prf_size=64,
        fetch_width=2, decode_width=2, rename_width=1, dispatch_width=1,
        commit_width=2, issue_width=2, alu_ports=1, load_ports=1,
        store_ports=1)
    trace = run_program(assemble(KERNEL))
    for mode in (FusionMode.NONE, FusionMode.HELIOS, FusionMode.ORACLE):
        result = simulate(trace, config.with_mode(mode))
        assert result.instructions == len(trace)


def test_empty_uplift_guard():
    results = simulate_modes(assemble("nop\necall"),
                             modes=[FusionMode.NONE])
    uplift = ipc_uplift(results)
    assert uplift[FusionMode.NONE.value] == 1.0
