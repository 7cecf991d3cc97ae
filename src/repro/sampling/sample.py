"""Systematic interval sampling (SMARTS-style) over one trace.

One ``sampled_simulate`` call measures the trace in three parts:

* the **head stratum** — the first ``total // windows`` µ-ops — is
  simulated in full detail and reported *exactly*.  Program starts are
  systematically non-stationary (cold caches and predictors give the
  head a CPI several times the steady state), so estimating the head
  from one window quantizes its weight badly; measuring it outright
  removes the dominant bias term for every homogeneous workload;
* N-1 short **detail windows**, one per remaining stratum, measured
  cycle-accurately between two resumable-run stops
  (``PipelineCore.run(until_instructions=...)``);
* everything between windows streams through the **functional warmer**
  (:mod:`repro.sampling.warm`) — branch predictor, caches, UCH, and
  fusion predictor keep learning, no cycles are simulated.  That is
  where the speedup comes from: functional warming runs more than an
  order of magnitude faster than detailed simulation.

Each window is structured as::

      [--functional warm--][--detail prefix--][== measured ==][slack]
       gap µ-ops            DETAIL_PREFIX      window µ-ops    trail

* the *detail prefix* is simulated cycle-by-cycle but not measured —
  it fills the pipeline and re-converges state the functional warmer
  only approximates (in-flight occupancy, UCH/FP recency);
* the *trail* extends the sub-trace past the measure end by the drain
  horizon so fetch starvation never pollutes the measurement.

The CPI estimate combines the exact head with the window-mean CPI of
the sampled strata; the confidence interval covers only the estimated
(non-head) portion.  Tiny traces where the windows would cover
everything fall back to full-detail simulation and report exact
numbers (``exact=True``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import FusionMode, ProcessorConfig
from repro.gcpause import paused_gc
from repro.isa.trace import Trace
from repro.pipeline.core import DRAIN_HORIZON, PipelineCore
from repro.sampling.estimate import (
    IntervalEstimate,
    SampledEstimate,
    finalize_estimate,
)
from repro.sampling.warm import FunctionalWarmer

#: Default number of strata (1 exact head + N-1 detail windows) for
#: ``repro ... --sample`` with no explicit count.
DEFAULT_WINDOWS = 32

#: Measured µ-ops per detail window.
DETAIL_WINDOW_UOPS = 1500

#: Detailed-but-unmeasured pipeline-fill prefix ahead of each window.
#: Sized well past the ROB (352) so in-flight occupancy and
#: memory-level parallelism approach steady state before measurement.
DETAIL_PREFIX_UOPS = 1024


@dataclass(frozen=True)
class SampleWindow:
    """One planned detail window, in parent-trace µ-op coordinates."""

    index: int
    detail_start: int    # detailed (unmeasured) simulation begins here ...
    measure_start: int   # ... measurement starts here ...
    measure_end: int     # ... and ends here (exclusive)
    sub_stop: int        # sub-trace extends to here (drain slack)


@dataclass(frozen=True)
class SamplePlan:
    """Head-exact region plus the systematic detail windows."""

    #: µ-ops [0, head_uops) are simulated in full detail and reported
    #: exactly (cold-start transient).
    head_uops: int
    windows: List[SampleWindow]


def plan_intervals(total: int, windows: int,
                   detail: int = DETAIL_WINDOW_UOPS,
                   prefix: int = DETAIL_PREFIX_UOPS,
                   ) -> Optional[SamplePlan]:
    """Plan an exact head plus systematic detail windows.

    The trace is cut into ``windows`` equal strata.  Stratum 0 is the
    exact head; each later stratum gets one mid-stratum detail window.
    Warming is continuous: every µ-op between windows streams through
    the functional warmer.

    Returns ``None`` when sampling is pointless — the head and the
    detailed windows (with slack) would cover most of the trace — in
    which case the caller should simulate in full detail.
    """
    if windows < 2:
        raise ValueError("need at least two strata (head + one window)")
    period = total // windows
    span = prefix + detail + DRAIN_HORIZON
    if period + (windows - 1) * span * 2 >= total:
        return None
    plans: List[SampleWindow] = []
    for i in range(1, windows):
        measure = i * period + period // 2
        measure = max(prefix, min(measure, total - detail))
        plans.append(SampleWindow(
            index=i,
            detail_start=measure - prefix,
            measure_start=measure,
            measure_end=measure + detail,
            sub_stop=min(total, measure + detail + DRAIN_HORIZON)))
    return SamplePlan(head_uops=period, windows=plans)


def sampled_simulate(trace: Trace, config: ProcessorConfig,
                     windows: int = DEFAULT_WINDOWS,
                     name: Optional[str] = None,
                     detail: int = DETAIL_WINDOW_UOPS,
                     prefix: int = DETAIL_PREFIX_UOPS) -> SampledEstimate:
    """Estimate IPC/CPI for ``trace`` from an exact head plus N-1
    sampled detail windows, warming functionally through *every*
    skipped µ-op.
    """
    total = len(trace)
    label = name or trace.name
    mode = config.fusion_mode.value
    plan = plan_intervals(total, windows, detail, prefix)
    # HELIOS reads the oracle pairing only for the Table III coverage
    # census (``predictive_pairs`` / ``fp_covered_pairs``), which never
    # feeds back into timing: the sampler estimates CPI, not coverage,
    # so its Helios cores get an empty pairing and skip the scan.
    # ORACLE consumes the pairing, so each core looks up its own.
    no_census = () if config.fusion_mode is FusionMode.HELIOS else None
    if plan is None:
        # Tiny trace: full detail costs no more than the windows would.
        core = PipelineCore(trace, config, oracle_pairs=no_census)
        stats = core.run()
        cpi = (stats.cycles / stats.instructions
               if stats.instructions else 0.0)
        return SampledEstimate(
            workload=label, mode=mode, total_uops=total,
            windows=0, window_uops=total,
            head_uops=0, head_cycles=0,
            cpi=IntervalEstimate(mean=cpi, half_width=0.0, n=1),
            ipc_estimate=stats.ipc, ipc_low=stats.ipc, ipc_high=stats.ipc,
            est_cycles=float(stats.cycles),
            cpi_bucket_shares=_bucket_shares(stats.cpi_buckets),
            exact=True)

    warmer = FunctionalWarmer(config)
    uops = trace.uops
    window_cpis: List[float] = []
    bucket_totals: dict = {}
    # Pause the cyclic GC across the whole loop: between windows the
    # sub-trace copies and the warmer allocate enough to trigger
    # generational collections, and each full one walks the
    # multi-million-object parent trace, which holds no cycles.
    with paused_gc():
        # Exact head: detailed simulation of stratum 0 from true cold
        # state.  The head core adopts the warmer's freshly-built
        # structures (identical to its own cold defaults), so its
        # counters are bit-exact *and* the warmer inherits the head's
        # trained state for the gaps that follow.
        head = plan.head_uops
        sub = trace.segment(0, min(total, head + DRAIN_HORIZON))
        core = PipelineCore(sub, config,
                            oracle_pairs=no_census,
                            warm_state=warmer.state())
        core.run(until_instructions=head)
        head_cycles = core.stats.cycles
        head_uops = core.stats.instructions
        for bucket, count in core.stats.cpi_buckets.items():
            bucket_totals[bucket] = bucket_totals.get(bucket, 0) + count
        warmer.commit_counter = core.commit_counter
        cursor = head_uops

        for w in plan.windows:
            # Functionally stream every skipped µ-op up to the detail
            # start (overlapping windows never re-warm a µ-op twice).
            if cursor < w.detail_start:
                warmer.warm(uops[cursor:w.detail_start])
            sub = trace.segment(w.detail_start, w.sub_stop)
            core = PipelineCore(sub, config,
                                oracle_pairs=no_census,
                                warm_state=warmer.state())
            pre = w.measure_start - w.detail_start
            core.run(until_instructions=pre)
            c0 = core.stats.cycles
            i0 = core.stats.instructions
            b0 = dict(core.stats.cpi_buckets)
            core.run(until_instructions=pre + (w.measure_end
                                               - w.measure_start))
            c1 = core.stats.cycles
            i1 = core.stats.instructions
            if i1 > i0:
                window_cpis.append((c1 - c0) / (i1 - i0))
                for bucket, count in core.stats.cpi_buckets.items():
                    delta = count - b0.get(bucket, 0)
                    if delta:
                        bucket_totals[bucket] = (
                            bucket_totals.get(bucket, 0) + delta)
            # The detailed run advanced the shared warm state through
            # the window; continue warming after the measured region.
            warmer.commit_counter = core.commit_counter
            cursor = w.measure_end
    return finalize_estimate(
        workload=label, mode=mode, total_uops=total,
        window_uops=detail,
        head_uops=head_uops, head_cycles=head_cycles,
        window_cpis=window_cpis, bucket_totals=bucket_totals)


def _bucket_shares(buckets: dict) -> dict:
    total = sum(buckets.values())
    if not total:
        return {}
    return {name: count / total for name, count in sorted(buckets.items())}
