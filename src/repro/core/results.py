"""Simulation results and derived metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import FusionMode
from repro.obs.events import PipelineObserver
from repro.obs.export import cpi_report as _render_cpi_report
from repro.pipeline.core import CoreStats, TOPDOWN_BUCKETS


@dataclass
class SimResult:
    """One (workload, configuration) simulation outcome.

    Wraps the raw pipeline counters and exposes the derived metrics the
    paper reports: IPC, fused-pair percentages (Figure 8 uses total
    dynamic *memory* instructions as the denominator; Figure 2 uses all
    dynamic µ-ops), predictor coverage/accuracy/MPKI (Table III), and
    stall breakdowns (Figure 9), plus the top-down CPI accounting
    (``cpi_buckets`` / :meth:`cpi_report`).
    """

    workload: str
    mode: FusionMode
    stats: CoreStats
    total_memory_uops: int = 0
    eligible_predictive_pairs: int = 0
    #: Commit width the run used — the top-down slot denominator.
    commit_width: int = 8
    #: The event-trace observer of a traced run.  Process-local and
    #: deliberately not serialized: cached results carry no observer.
    observer: Optional[PipelineObserver] = field(
        default=None, repr=False, compare=False)

    # -- headline -------------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    # -- fused pair metrics -----------------------------------------------------

    @property
    def csf_pair_pct_of_memory(self) -> float:
        """CSF memory pairs / dynamic memory instructions (Figure 8)."""
        if not self.total_memory_uops:
            return 0.0
        return 100.0 * self.stats.csf_memory_pairs / self.total_memory_uops

    @property
    def ncsf_pair_pct_of_memory(self) -> float:
        """NCSF memory pairs / dynamic memory instructions (Figure 8)."""
        if not self.total_memory_uops:
            return 0.0
        return 100.0 * self.stats.ncsf_memory_pairs / self.total_memory_uops

    @property
    def fused_uop_pct(self) -> float:
        """% of dynamic instructions that are part of any fused pair."""
        if not self.instructions:
            return 0.0
        return 100.0 * 2 * self.stats.fused_pairs / self.instructions

    @property
    def memory_fused_uop_pct(self) -> float:
        """% of dynamic instructions inside *memory* fused pairs."""
        if not self.instructions:
            return 0.0
        pairs = self.stats.csf_memory_pairs + self.stats.ncsf_memory_pairs
        return 100.0 * 2 * pairs / self.instructions

    @property
    def other_fused_uop_pct(self) -> float:
        """% of dynamic instructions inside 'Others' idiom pairs."""
        if not self.instructions:
            return 0.0
        return 100.0 * 2 * self.stats.other_pairs / self.instructions

    @property
    def mean_ncsf_distance(self) -> float:
        if not self.stats.ncsf_memory_pairs:
            return 0.0
        return self.stats.ncsf_distance_sum / self.stats.ncsf_memory_pairs

    # -- fusion predictor metrics (Table III) ------------------------------------

    @property
    def fp_coverage_pct(self) -> float:
        """Captured oracle-eligible pairs / oracle-eligible pairs.

        The numerator credits each prediction-needing oracle pair at
        most once when a committed predicted fusion captures one of its
        µ-ops (possibly paired with a different partner than the oracle
        chose), so the ratio is ≤ 100 % by construction — the raw
        correct-fusion count, in contrast, can exceed the denominator
        and previously had to be clamped.
        """
        if not self.eligible_predictive_pairs:
            return 0.0
        return (100.0 * self.stats.fp_covered_pairs
                / self.eligible_predictive_pairs)

    @property
    def fp_accuracy_pct(self) -> float:
        """Correct fusions / (correct + address mispredictions).

        ``nan`` when the predictor resolved no fusion at all — a run
        the predictor never fired on has no accuracy, and reporting
        100.0 made Table III claim perfection for ineligible
        workloads.  Renderers show it as ``n/a``.
        """
        resolved = (self.stats.fp_fusions_correct
                    + self.stats.fp_address_mispredictions)
        if not resolved:
            return float("nan")
        return 100.0 * self.stats.fp_fusions_correct / resolved

    @property
    def fp_mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.stats.fp_address_mispredictions / self.instructions

    # -- stalls (Figure 9) --------------------------------------------------------

    @property
    def rename_stall_pct(self) -> float:
        if not self.cycles:
            return 0.0
        return 100.0 * self.stats.rename_stall_cycles / self.cycles

    @property
    def dispatch_stall_pct(self) -> float:
        if not self.cycles:
            return 0.0
        return 100.0 * self.stats.dispatch_stall_cycles / self.cycles

    def dispatch_stall_breakdown(self) -> Dict[str, int]:
        return {
            "rob": self.stats.dispatch_stall_rob,
            "iq": self.stats.dispatch_stall_iq,
            "lq": self.stats.dispatch_stall_lq,
            "sq": self.stats.dispatch_stall_sq,
        }

    # -- top-down CPI accounting --------------------------------------------------

    @property
    def cpi_buckets(self) -> Dict[str, int]:
        """Commit-slot attribution in canonical bucket order."""
        raw = self.stats.cpi_buckets
        return {name: raw.get(name, 0) for name in TOPDOWN_BUCKETS}

    @property
    def total_commit_slots(self) -> int:
        return self.cycles * self.commit_width

    def topdown_share_pct(self, bucket: str) -> float:
        """One bucket's share of all commit slots, in percent."""
        total = self.total_commit_slots
        if not total:
            return 0.0
        return 100.0 * self.stats.cpi_buckets.get(bucket, 0) / total

    @property
    def backend_bound_pct(self) -> float:
        """Memory + core execution + full-structure allocation stalls."""
        return sum(self.topdown_share_pct(b) for b in (
            "memory", "dispatch_rob", "dispatch_iq",
            "dispatch_lq", "dispatch_sq"))

    @property
    def frontend_bound_pct(self) -> float:
        return (self.topdown_share_pct("frontend")
                + self.topdown_share_pct("rename"))

    @property
    def bad_speculation_pct(self) -> float:
        """Branch-wait plus fusion-repair slots."""
        return (self.topdown_share_pct("branch_flush")
                + self.topdown_share_pct("fusion_repair"))

    def cpi_report(self) -> str:
        """The ASCII top-down breakdown (see ``repro debug``)."""
        return _render_cpi_report(
            self.cpi_buckets, self.cycles, self.commit_width,
            self.stats.uops_committed)

    # -- serialization (persistent result cache) --------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe dict round-trippable through :meth:`from_dict`."""
        return {
            "workload": self.workload,
            "mode": self.mode.value,
            "stats": self.stats.to_dict(),
            "total_memory_uops": self.total_memory_uops,
            "eligible_predictive_pairs": self.eligible_predictive_pairs,
            "commit_width": self.commit_width,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimResult":
        return cls(
            workload=data["workload"],
            mode=FusionMode(data["mode"]),
            stats=CoreStats.from_dict(data["stats"]),
            total_memory_uops=data["total_memory_uops"],
            eligible_predictive_pairs=data["eligible_predictive_pairs"],
            commit_width=data["commit_width"],
        )

    def summary(self) -> str:
        """A one-workload human-readable report."""
        lines = [
            "%s / %s" % (self.workload, self.mode.value),
            "  IPC %.3f  (%d instructions, %d cycles)"
            % (self.ipc, self.instructions, self.cycles),
            "  fused pairs: CSF-mem %d, NCSF-mem %d, others %d"
            % (self.stats.csf_memory_pairs, self.stats.ncsf_memory_pairs,
               self.stats.other_pairs),
            "  stalls: rename %.1f%%, dispatch %.1f%%"
            % (self.rename_stall_pct, self.dispatch_stall_pct),
        ]
        if self.mode is FusionMode.HELIOS:
            accuracy = self.fp_accuracy_pct
            accuracy_str = ("n/a" if math.isnan(accuracy)
                            else "%.2f%%" % accuracy)
            lines.append(
                "  FP: coverage %.1f%%, accuracy %s, MPKI %.4f"
                % (self.fp_coverage_pct, accuracy_str, self.fp_mpki))
        return "\n".join(lines)
