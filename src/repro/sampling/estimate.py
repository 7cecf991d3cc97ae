"""Interval estimator for sampled simulation.

Systematic interval sampling measures CPI over n detail windows; the
estimator reports the mean with a two-sided 95 % Student-t confidence
interval (the windows are treated as independent draws, the standard
SMARTS assumption).  No SciPy at runtime: a small critical-value table
covers every df, conservatively rounding down to the nearest tabulated
entry (which *widens* the reported interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Two-sided 95 % Student-t critical values by degrees of freedom.
#: Lookup takes the largest tabulated df <= the actual df, so the
#: interval is never narrower than the exact t value would give.
_T95 = (
    (1, 12.706), (2, 4.303), (3, 3.182), (4, 2.776), (5, 2.571),
    (6, 2.447), (7, 2.365), (8, 2.306), (9, 2.262), (10, 2.228),
    (12, 2.179), (15, 2.131), (20, 2.086), (25, 2.060), (30, 2.042),
    (40, 2.021), (60, 2.000), (120, 1.980), (10**9, 1.960),
)


#: Relative floor on the reported CPI half-width.  Systematic interval
#: sampling of strongly periodic kernels can measure *identical* CPI in
#: every window (zero between-window variance) while still carrying a
#: small systematic bias the t-interval cannot see: window-boundary
#: quantization (measurement starts/stops mid-commit-group) and
#: residual warm-state approximation (in-flight MLP the functional
#: warmer cannot reproduce).  Observed bias on steady catalog workloads
#: stays below ~0.4 %; the floor widens every reported interval by at
#: least this non-sampling-bias allowance (same spirit as the SMARTS
#: paper's non-sampling-bias accounting).
NON_SAMPLING_BIAS_REL = 0.0075


def t_critical_95(df: int) -> float:
    """Two-sided 95 % t critical value (conservative table lookup)."""
    if df < 1:
        raise ValueError("need at least 2 samples for an interval")
    best = _T95[0][1]
    for table_df, value in _T95:
        if table_df <= df:
            best = value
        else:
            break
    return best


@dataclass
class IntervalEstimate:
    """Mean ± half-width at 95 % confidence for one sampled metric."""

    mean: float
    half_width: float
    n: int
    std: float = 0.0
    confidence: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def to_dict(self) -> Dict[str, float]:
        return {"mean": self.mean, "half_width": self.half_width,
                "low": self.low, "high": self.high, "n": self.n,
                "std": self.std, "confidence": self.confidence}


def estimate_mean(samples: Sequence[float]) -> IntervalEstimate:
    """Student-t interval for the mean of ``samples``.

    A single sample degenerates to a zero-width interval — callers
    should plan at least two windows for a meaningful error bar.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(samples) / n
    if n == 1:
        return IntervalEstimate(mean=mean, half_width=0.0, n=1)
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(var)
    half = t_critical_95(n - 1) * std / math.sqrt(n)
    return IntervalEstimate(mean=mean, half_width=half, n=n, std=std)


@dataclass
class SampledEstimate:
    """Everything a sampled run reports (see
    :func:`repro.sampling.sample.sampled_simulate`)."""

    workload: str
    mode: str
    total_uops: int
    windows: int
    window_uops: int
    #: The head stratum ([0, head_uops)) is simulated in full detail
    #: and contributes *exactly* head_cycles to est_cycles — program
    #: starts are systematically non-stationary, so the cold-start
    #: transient is measured rather than estimated.
    head_uops: int = 0
    head_cycles: int = 0
    #: Cycles-per-µop interval over the sampled (non-head) strata (the
    #: primitive the detail windows measure).
    cpi: IntervalEstimate = None
    #: Derived IPC point estimate with propagated error bounds
    #: (reciprocal of the CPI interval endpoints).
    ipc_estimate: float = 0.0
    ipc_low: float = 0.0
    ipc_high: float = 0.0
    #: Estimated total cycles for the full trace.
    est_cycles: float = 0.0
    #: Aggregate top-down bucket shares over the measured windows.
    cpi_bucket_shares: Dict[str, float] = field(default_factory=dict)
    #: True when the plan degenerated to full-detail simulation (tiny
    #: trace): the numbers are then exact, not estimates.
    exact: bool = False

    @property
    def ipc_rel_err(self) -> float:
        """Relative error bound on IPC.

        The CPI half-width applies only to the estimated (non-head)
        µ-ops; the head contributes exact cycles, shrinking the
        relative bound below the raw CPI interval's.  Exact for the
        reciprocal's endpoints (the total-cycle interval is linear in
        the CPI interval).
        """
        if self.cpi is None or not self.est_cycles:
            return 0.0
        tail_uops = self.total_uops - self.head_uops
        return self.cpi.half_width * tail_uops / self.est_cycles

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload, "mode": self.mode,
            "total_uops": self.total_uops, "windows": self.windows,
            "window_uops": self.window_uops,
            "head_uops": self.head_uops,
            "head_cycles": self.head_cycles,
            "cpi": self.cpi.to_dict() if self.cpi is not None else None,
            "ipc_estimate": self.ipc_estimate,
            "ipc_low": self.ipc_low, "ipc_high": self.ipc_high,
            "ipc_rel_err": self.ipc_rel_err,
            "est_cycles": self.est_cycles,
            "cpi_bucket_shares": dict(self.cpi_bucket_shares),
            "exact": self.exact,
        }


def finalize_estimate(workload: str, mode: str, total_uops: int,
                      window_uops: int,
                      window_cpis: List[float],
                      bucket_totals: Dict[str, int],
                      head_uops: int = 0,
                      head_cycles: int = 0) -> SampledEstimate:
    """Fold the exact head plus per-window CPI samples into the
    reported estimate.

    Total cycles = exact head cycles + window-mean CPI × remaining
    µ-ops; the confidence interval scales the CPI interval by the
    estimated (non-head) portion only.
    """
    cpi = estimate_mean(window_cpis)
    floor = NON_SAMPLING_BIAS_REL * abs(cpi.mean)
    if cpi.half_width < floor:
        cpi = IntervalEstimate(mean=cpi.mean, half_width=floor,
                               n=cpi.n, std=cpi.std)
    tail_uops = max(0, total_uops - head_uops)
    est_cycles = head_cycles + cpi.mean * tail_uops
    cycles_low = head_cycles + cpi.low * tail_uops
    cycles_high = head_cycles + cpi.high * tail_uops
    ipc = total_uops / est_cycles if est_cycles > 0 else 0.0
    # Reciprocal endpoints: more cycles -> lower IPC.
    ipc_low = total_uops / cycles_high if cycles_high > 0 else 0.0
    ipc_high = total_uops / cycles_low if cycles_low > 0 else math.inf
    total_slots = sum(bucket_totals.values())
    shares = {name: count / total_slots
              for name, count in sorted(bucket_totals.items())} \
        if total_slots else {}
    return SampledEstimate(
        workload=workload, mode=mode, total_uops=total_uops,
        windows=len(window_cpis), window_uops=window_uops,
        head_uops=head_uops, head_cycles=head_cycles, cpi=cpi,
        ipc_estimate=ipc, ipc_low=ipc_low, ipc_high=ipc_high,
        est_cycles=est_cycles,
        cpi_bucket_shares=shares)
