"""Sampling: scale cycle-accurate runs across multi-million-µop traces.

:func:`sampled_simulate` is systematic interval sampling (SMARTS-style,
DESIGN §4e): an exact detailed head plus N detail windows with
functional warming between them, giving statistically-bounded IPC/CPI
estimates with confidence intervals.  It is the approximate
alternative to a serial full-detail run.

Plus :func:`build_scaled_workload`, which rebuilds catalog kernels
with multiplied iteration counts so traces actually *reach*
multi-million-µop lengths.
"""

from repro.sampling.estimate import (
    IntervalEstimate,
    SampledEstimate,
    estimate_mean,
    t_critical_95,
)
from repro.sampling.sample import (
    DEFAULT_WINDOWS,
    DETAIL_PREFIX_UOPS,
    DETAIL_WINDOW_UOPS,
    SamplePlan,
    SampleWindow,
    plan_intervals,
    sampled_simulate,
)
from repro.sampling.scale import build_scaled_workload
from repro.sampling.warm import FunctionalWarmer, WarmState

__all__ = [
    "DEFAULT_WINDOWS",
    "DETAIL_PREFIX_UOPS",
    "DETAIL_WINDOW_UOPS",
    "FunctionalWarmer",
    "IntervalEstimate",
    "SamplePlan",
    "SampleWindow",
    "SampledEstimate",
    "WarmState",
    "build_scaled_workload",
    "estimate_mean",
    "plan_intervals",
    "sampled_simulate",
    "t_critical_95",
]
