"""Regeneration of the paper's figures (2, 3, 4, 5, 8, 9, 10).

Each ``figureN`` function returns an :class:`ExperimentResult` whose
rows mirror the series plotted in the paper; ``render()`` prints them
as an ASCII table with the aggregate row the paper quotes in its text.

Census figures read the oracle census of each captured trace.
Simulation-backed ones take their cells from one
:meth:`~repro.experiments.engine.SweepEngine.sweep` call over the modes
:data:`SWEEP_MODES` lists for them, on the ``engine`` passed in (a
default :class:`~repro.experiments.engine.SweepEngine` when ``None``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import FusionMode, ProcessorConfig
from repro.core.results import SimResult
from repro.experiments.engine import SweepEngine
from repro.fusion.oracle import analyze_trace
from repro.fusion.taxonomy import Contiguity
from repro.stats import amean, ascii_table, geomean
from repro.workloads import build_workload, workload_names


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus its aggregate row."""

    name: str
    headers: List[str]
    rows: List[List]
    summary: List = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        rows = self.rows + ([self.summary] if self.summary else [])
        text = ascii_table(self.headers, rows, title=self.name)
        if self.notes:
            text += "\n" + self.notes
        return text

    def row_for(self, workload: str) -> List:
        for row in self.rows:
            if row[0] == workload:
                return row
        raise KeyError(workload)

    def column(self, header: str) -> List:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


def _names(workloads: Optional[Sequence[str]]) -> List[str]:
    return list(workloads) if workloads is not None else workload_names()


_CPI_MODES = (FusionMode.NONE, FusionMode.HELIOS)

_FIG10_MODES = (FusionMode.RISCV, FusionMode.CSF_SBR, FusionMode.RISCV_PP,
                FusionMode.HELIOS, FusionMode.ORACLE)

#: The fusion modes each simulation-backed experiment sweeps, keyed by
#: its function name.  Census experiments simulate nothing.
SWEEP_MODES = {
    "figure3": (FusionMode.NONE, FusionMode.CSF_SBR, FusionMode.RISCV_PP),
    "figure8": (FusionMode.HELIOS, FusionMode.ORACLE),
    "figure9": (FusionMode.NONE, FusionMode.HELIOS, FusionMode.ORACLE),
    "figure10": (FusionMode.NONE,) + _FIG10_MODES,
    "cpi_accounting": _CPI_MODES,
    "table3": (FusionMode.HELIOS,),
}


def _sweep(experiment: str, workloads: Optional[Sequence[str]],
           config: Optional[ProcessorConfig],
           engine: Optional[SweepEngine],
           ) -> Dict[str, Dict[FusionMode, SimResult]]:
    """The cells ``experiment`` renders: one ``engine.sweep`` over its
    :data:`SWEEP_MODES`, as ``cells[workload][mode]``."""
    engine = engine if engine is not None else SweepEngine()
    results = engine.sweep(SWEEP_MODES[experiment], workloads=workloads,
                           config=config)
    return {name: {FusionMode(mode): result
                   for mode, result in by_mode.items()}
            for name, by_mode in results.items()}


def _census(name: str, config: Optional[ProcessorConfig]):
    """Oracle census of one workload under one configuration's
    granularity / fusion-distance parameters."""
    cfg = config or ProcessorConfig()
    return analyze_trace(build_workload(name),
                         granularity=cfg.cache_access_granularity,
                         max_distance=cfg.max_fusion_distance)


# ---------------------------------------------------------------- Figure 2 --

def figure2(workloads: Optional[Sequence[str]] = None,
            config: Optional[ProcessorConfig] = None) -> ExperimentResult:
    """% of dynamic µ-ops inside fused pairs: Memory vs Others idioms.

    Paper: memory pairing averages 5.6 % of dynamic µ-ops and the other
    Table I idioms 1.1 %, with bitcount/susan/657.xz_2 as the
    Others-dominated exceptions.
    """
    rows = []
    for name in _names(workloads):
        analysis = _census(name, config)
        rows.append([
            name,
            100.0 * analysis.memory_fused_uop_fraction,
            100.0 * analysis.other_fused_uop_fraction,
        ])
    summary = ["average", amean(r[1] for r in rows), amean(r[2] for r in rows)]
    return ExperimentResult(
        name="Figure 2: fused u-ops by idiom class (% of dynamic u-ops)",
        headers=["workload", "Memory%", "Others%"],
        rows=rows, summary=summary,
        notes="paper: Memory 5.6%, Others 1.1% on average")


# ---------------------------------------------------------------- Figure 3 --

def figure3(workloads: Optional[Sequence[str]] = None,
            config: Optional[ProcessorConfig] = None,
            engine: Optional[SweepEngine] = None) -> ExperimentResult:
    """IPC of memory-only vs all-idiom consecutive fusion vs no fusion.

    Paper: the two differ by about one percentage point on average;
    only susan degrades visibly with memory-only fusion.
    """
    cells = _sweep("figure3", workloads, config, engine)
    rows = []
    for name in _names(workloads):
        base = cells[name][FusionMode.NONE].ipc
        memory_only = cells[name][FusionMode.CSF_SBR].ipc
        all_idioms = cells[name][FusionMode.RISCV_PP].ipc
        rows.append([name, memory_only / base, all_idioms / base])
    summary = ["geomean", geomean(r[1] for r in rows),
               geomean(r[2] for r in rows)]
    return ExperimentResult(
        name="Figure 3: normalized IPC, memory-only vs all idioms",
        headers=["workload", "MemoryOnly", "AllIdioms"],
        rows=rows, summary=summary,
        notes="paper: ~1 percentage point apart on average")


# ---------------------------------------------------------------- Figure 4 --

_FIG4_CATEGORIES = (Contiguity.CONTIGUOUS, Contiguity.OVERLAPPING,
                    Contiguity.SAME_LINE, Contiguity.NEXT_LINE)


def figure4(workloads: Optional[Sequence[str]] = None,
            config: Optional[ProcessorConfig] = None) -> ExperimentResult:
    """Consecutive memory pair categories relative to dynamic µ-ops.

    Paper: overlapping pairs are rare; ~1 % extra µ-ops could fuse with
    their neighbour if non-contiguous fusion within 64 B were allowed
    (SameLine + NextLine).
    """
    rows = []
    for name in _names(workloads):
        analysis = _census(name, config)
        histogram = analysis.contiguity_histogram()
        total = max(1, analysis.total_uops)
        rows.append([name] + [100.0 * 2 * histogram[cat] / total
                              for cat in _FIG4_CATEGORIES])
    summary = ["average"] + [amean(r[i] for r in rows)
                             for i in range(1, 5)]
    return ExperimentResult(
        name="Figure 4: consecutive memory pairs by category (% of u-ops)",
        headers=["workload"] + [c.value for c in _FIG4_CATEGORIES],
        rows=rows, summary=summary,
        notes="paper: overlapping pairs are rare; SameLine+NextLine ~1%")


# ---------------------------------------------------------------- Figure 5 --

def figure5(workloads: Optional[Sequence[str]] = None,
            config: Optional[ProcessorConfig] = None) -> ExperimentResult:
    """Additional potential from non-consecutive and DBR fusion.

    Paper: NCSF adds substantially over CSF; 12.1 % of NCSF pairs are
    asymmetric; DBR pairs are ~1.5 % of dynamic µ-ops; the mean
    head-tail distance is 10.5 µ-ops.
    """
    rows = []
    for name in _names(workloads):
        analysis = _census(name, config)
        total = max(1, analysis.total_uops)
        rows.append([
            name,
            100.0 * 2 * len(analysis.csf_pairs) / total,
            100.0 * 2 * len(analysis.ncsf_pairs) / total,
            100.0 * 2 * len(analysis.dbr_pairs) / total,
            100.0 * analysis.ncsf_asymmetric_fraction,
            analysis.mean_catalyst_distance,
        ])
    summary = ["average"] + [amean(r[i] for r in rows) for i in range(1, 6)]
    return ExperimentResult(
        name="Figure 5: NCSF / DBR fusion potential",
        headers=["workload", "CSF%", "NCSF%", "DBR%", "asym%ofNCSF",
                 "meanDist"],
        rows=rows, summary=summary,
        notes="paper: DBR ~1.5% of u-ops; 12.1% of NCSF asymmetric; "
              "mean distance 10.5")


# ---------------------------------------------------------------- Figure 8 --

def figure8(workloads: Optional[Sequence[str]] = None,
            config: Optional[ProcessorConfig] = None,
            engine: Optional[SweepEngine] = None) -> ExperimentResult:
    """CSF and NCSF fused pairs, Helios vs OracleFusion (% of memory ops).

    Paper: Helios delivers 6.7 % CSF + 5.5 % NCSF; Oracle 6.1 % CSF with
    a higher NCSF share (Helios's training favours CSF).
    """
    cells = _sweep("figure8", workloads, config, engine)
    rows = []
    for name in _names(workloads):
        helios = cells[name][FusionMode.HELIOS]
        oracle = cells[name][FusionMode.ORACLE]
        rows.append([
            name,
            helios.csf_pair_pct_of_memory, helios.ncsf_pair_pct_of_memory,
            oracle.csf_pair_pct_of_memory, oracle.ncsf_pair_pct_of_memory,
        ])
    summary = ["average"] + [amean(r[i] for r in rows) for i in range(1, 5)]
    return ExperimentResult(
        name="Figure 8: fused pairs, Helios vs Oracle (% of memory u-ops)",
        headers=["workload", "Helios CSF", "Helios NCSF",
                 "Oracle CSF", "Oracle NCSF"],
        rows=rows, summary=summary,
        notes="paper: Helios 6.7% CSF + 5.5% NCSF; Oracle total 13.6%")


# ---------------------------------------------------------------- Figure 9 --

def figure9(workloads: Optional[Sequence[str]] = None,
            config: Optional[ProcessorConfig] = None,
            engine: Optional[SweepEngine] = None) -> ExperimentResult:
    """Rename and Dispatch structural stalls (% of execution cycles).

    The trailing columns add the top-down view: the share of commit
    slots each configuration loses to backend pressure (memory +
    full-structure allocation stalls), baseline vs Helios — the same
    evidence the stall counters give, but guaranteed to account for
    every cycle (sum over all buckets == cycles * commit_width).
    """
    cells = _sweep("figure9", workloads, config, engine)
    rows = []
    for name in _names(workloads):
        base = cells[name][FusionMode.NONE]
        helios = cells[name][FusionMode.HELIOS]
        oracle = cells[name][FusionMode.ORACLE]
        rows.append([
            name,
            base.rename_stall_pct, base.dispatch_stall_pct,
            helios.rename_stall_pct, helios.dispatch_stall_pct,
            oracle.rename_stall_pct, oracle.dispatch_stall_pct,
            base.backend_bound_pct, helios.backend_bound_pct,
        ])
    summary = ["average"] + [amean(r[i] for r in rows) for i in range(1, 9)]
    return ExperimentResult(
        name="Figure 9: rename/dispatch stalls (% of cycles)",
        headers=["workload", "base ren", "base dis",
                 "Helios ren", "Helios dis", "Oracle ren", "Oracle dis",
                 "base be%", "Helios be%"],
        rows=rows, summary=summary,
        notes="paper: fusion removes a large share of dispatch stalls "
              "(657.xz_1: 88% SQ-stall cycles in the baseline); "
              "be% = top-down backend-bound commit-slot share")


# ------------------------------------------------- top-down CPI accounting --

def cpi_accounting(workloads: Optional[Sequence[str]] = None,
                   config: Optional[ProcessorConfig] = None,
                   engine: Optional[SweepEngine] = None,
                   ) -> ExperimentResult:
    """Top-down commit-slot shares per workload, baseline vs Helios.

    Not a paper figure — the observability companion to Figure 9: for
    each workload, the percentage of commit slots in each top-down
    bucket group (base / frontend-bound / backend-bound /
    branch+fusion repair / drain), under NoFusion and Helios.
    """
    cells = _sweep("cpi_accounting", workloads, config, engine)
    rows = []
    for name in _names(workloads):
        row = [name]
        for mode in _CPI_MODES:
            result = cells[name][mode]
            row.extend([
                result.topdown_share_pct("base"),
                result.frontend_bound_pct,
                result.backend_bound_pct,
                result.bad_speculation_pct,
                result.topdown_share_pct("drain"),
            ])
        rows.append(row)
    count = 1 + 5 * len(_CPI_MODES)
    summary = ["average"] + [amean(r[i] for r in rows)
                             for i in range(1, count)]
    headers = ["workload"]
    for mode in _CPI_MODES:
        tag = "base" if mode is FusionMode.NONE else "Helios"
        headers.extend(["%s %s" % (tag, col)
                        for col in ("ret%", "fe%", "be%", "spec%", "drain%")])
    return ExperimentResult(
        name="Top-down CPI accounting (% of commit slots)",
        headers=headers, rows=rows, summary=summary,
        notes="every commit slot attributed to exactly one bucket; "
              "rows sum to 100% per configuration")


# --------------------------------------------------------------- Figure 10 --

def figure10(workloads: Optional[Sequence[str]] = None,
             config: Optional[ProcessorConfig] = None,
             engine: Optional[SweepEngine] = None) -> ExperimentResult:
    """IPC of every configuration normalized to the no-fusion baseline.

    Paper (geomean): RISCVFusion +0.8 %, CSF-SBR +6 %, RISCVFusion++
    +7 %, Helios +14.2 %, OracleFusion +16.3 %.
    """
    cells = _sweep("figure10", workloads, config, engine)
    rows = []
    for name in _names(workloads):
        base = cells[name][FusionMode.NONE].ipc
        rows.append([name] + [cells[name][mode].ipc / base
                              for mode in _FIG10_MODES])
    summary = ["geomean"] + [geomean(r[i] for r in rows)
                             for i in range(1, len(_FIG10_MODES) + 1)]
    return ExperimentResult(
        name="Figure 10: IPC normalized to NoFusion",
        headers=["workload"] + [m.value for m in _FIG10_MODES],
        rows=rows, summary=summary,
        notes="paper geomean: +0.8% / +6% / +7% / +14.2% / +16.3%")
