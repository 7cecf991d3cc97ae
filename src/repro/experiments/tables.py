"""Regeneration of the paper's tables (I, II, III)."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.config import FusionMode, ProcessorConfig
from repro.core.storage import helios_storage_budget
from repro.experiments.engine import SweepEngine
from repro.experiments.figures import (
    ExperimentResult,
    _census,
    _names,
    _sweep,
)
from repro.fusion.idioms import IDIOMS
from repro.stats import amean


def table1(workloads: Optional[Sequence[str]] = None,
           config: Optional[ProcessorConfig] = None) -> ExperimentResult:
    """Table I: the RISC-V fusion idiom set, with the dynamic pair
    counts each idiom contributes across the workload suite (memory
    pairing idioms — the paper's bold rows — flagged).
    """
    counts = {idiom.name: 0 for idiom in IDIOMS}
    for name in _names(workloads):
        analysis = _census(name, config)
        for pair in analysis.memory_pairs + analysis.other_pairs:
            counts[pair.idiom] = counts.get(pair.idiom, 0) + 1
    rows = [[idiom.name, "yes" if idiom.is_memory else "no",
             idiom.description, counts.get(idiom.name, 0)]
            for idiom in IDIOMS]
    return ExperimentResult(
        name="Table I: RISC-V fusion idioms (memory pairing in bold)",
        headers=["idiom", "memory", "description", "dynamic pairs"],
        rows=rows,
        notes="memory pairing idioms are the paper's bold rows")


def table2(config: Optional[ProcessorConfig] = None) -> ExperimentResult:
    """Table II: the simulated processor plus the Helios storage budget."""
    config = config or ProcessorConfig()
    budget = helios_storage_budget(config)
    rows = [
        ["model", "Intel-Icelake-like out-of-order"],
        ["fetch/decode width", "%d / %d" % (config.fetch_width,
                                            config.decode_width)],
        ["rename/dispatch width", "%d / %d" % (config.rename_width,
                                               config.dispatch_width)],
        ["issue/commit width", "%d / %d" % (config.issue_width,
                                            config.commit_width)],
        ["ROB / IQ / AQ", "%d / %d / %d" % (config.rob_size, config.iq_size,
                                            config.aq_size)],
        ["LQ / SQ", "%d / %d" % (config.lq_size, config.sq_size)],
        ["int / fp PRF", "%d / %d" % (config.int_prf_size,
                                      config.fp_prf_size)],
        ["L1I", "%dKB %d-way" % (
            config.l1i.size_bytes // 1024, config.l1i.associativity)],
        ["L1D", "%dKB %d-way, %d cycles" % (
            config.l1d.size_bytes // 1024, config.l1d.associativity,
            config.l1d.latency)],
        ["L2", "%dKB %d-way, %d cycles" % (
            config.l2.size_bytes // 1024, config.l2.associativity,
            config.l2.latency)],
        ["L3", "%dKB %d-way, %d cycles" % (
            config.l3.size_bytes // 1024, config.l3.associativity,
            config.l3.latency)],
        ["DRAM latency", "%d cycles" % config.dram_latency],
        ["cache access granularity", "%d B" % config.cache_access_granularity],
        ["max fusion distance", "%d u-ops" % config.max_fusion_distance],
        ["NCSF nesting", str(config.ncsf_nesting)],
        ["UCH", "%d-entry loads + %d-entry stores (%d bits)" % (
            config.uch_load_entries, config.uch_store_entries,
            budget.items["uch"])],
        ["fusion predictor", "2 x %d-set %d-way + %d-entry selector "
                             "(%d bits)" % (
            config.fp_sets, config.fp_ways, config.fp_selector_entries,
            budget.items["fusion_predictor"])],
        ["NCSF pipeline storage", "%d bits (%.2f Kbit)" % (
            budget.ncsf_bits, budget.ncsf_bits / 1024)],
        ["flush pointers", "%d bits" % budget.flush_pointer_bits],
        ["grand total", "%.2f Kbit (%.2f KB)" % (
            budget.total_bits / 1024, budget.total_bits / 8192)],
    ]
    return ExperimentResult(
        name="Table II: simulated processor and Helios storage budget",
        headers=["parameter", "value"],
        rows=rows,
        notes="paper: 4.77 Kbit NCSF support + 72 Kbit predictor "
              "(+6336 flush-pointer bits, ~83 Kbit total)")


def table3(workloads: Optional[Sequence[str]] = None,
           config: Optional[ProcessorConfig] = None,
           engine: Optional[SweepEngine] = None) -> ExperimentResult:
    """Table III: fusion predictor coverage, accuracy and MPKI.

    Coverage is only defined for workloads that *have* pairs needing a
    prediction (NCSF or CSF-DBR), and accuracy only for workloads the
    predictor actually fired on; others show "n/a" and are excluded
    from the respective average.
    """
    cells = _sweep("table3", workloads, config, engine)
    rows = []
    coverages = []
    accuracies = []
    for name in _names(workloads):
        result = cells[name][FusionMode.HELIOS]
        if result.eligible_predictive_pairs:
            coverage = "%.2f" % result.fp_coverage_pct
            coverages.append(result.fp_coverage_pct)
        else:
            coverage = "n/a"
        accuracy_pct = result.fp_accuracy_pct
        if math.isnan(accuracy_pct):
            accuracy = "n/a"
        else:
            accuracy = accuracy_pct
            accuracies.append(accuracy_pct)
        rows.append([name, coverage, accuracy, "%.4f" % result.fp_mpki])
    summary = ["average",
               "%.2f" % amean(coverages),
               amean(accuracies),
               "%.4f" % amean(float(r[3]) for r in rows)]
    return ExperimentResult(
        name="Table III: Helios fusion predictor coverage/accuracy/MPKI",
        headers=["workload", "coverage%", "accuracy%", "MPKI"],
        rows=rows, summary=summary,
        notes="paper averages: coverage 68.2%, accuracy 99.7%, MPKI 0.1416; "
              "n/a = the workload has no pairs that need prediction")
