"""Parallel sweep engine: fan (workload, configuration) simulation
jobs across worker processes, backed by the persistent result cache.

The simulations are embarrassingly parallel — each (workload, mode,
config) job replays its workload's captured trace through an
independent :class:`~repro.pipeline.core.PipelineCore` — so the engine
partitions the missing jobs over the fault-tolerant process-per-job
scheduler in :mod:`repro.experiments.faults`: per-job deadlines,
lost-worker recovery, and one more, serial attempt in the supervisor
for a job that failed the pool.  With ``jobs=1`` (the default) each
job runs once, sequentially, in-process, which keeps tier-1 tests and
determinism untouched; a ``jobs=N`` sweep produces bit-identical
results because every job is self-contained and outcomes are
collected in job order.

Capture-once/replay-many (the paper's Spike methodology): before any
workers start, the engine loads each distinct workload trace exactly
once — in-process memo → persistent trace store → cold interpretation
— and pre-extracts the shared oracle pair set for modes that consume
it.  ``fork`` workers then inherit the loaded traces and pair sets
through copy-on-write; ``spawn`` workers replay the serialized traces
from the store instead of re-interpreting.

Lookup order per job: the engine's in-process memo → persistent disk
cache → simulate.  Both layers key on the *full* configuration
fingerprint, so custom-config sweeps are cached exactly like
default-config ones.

The engine is the one path from (workload, configuration) to a
:class:`~repro.core.results.SimResult`: ``repro experiment`` builds one
per command from its flags, and every simulation-backed figure or table
takes its cells from one :meth:`SweepEngine.sweep` call.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.config import FusionMode, ProcessorConfig
from repro.core.results import SimResult
from repro.core.simulator import simulate
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.faults import JobFailure, SweepReport, run_jobs
from repro.fusion.oracle import cached_oracle_pairs
from repro.workloads import build_workload, ensure_known, workload_names

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"


def parse_jobs(raw: Union[int, str], source: str = "jobs") -> int:
    """Worker count under the one rule ``--jobs``, ``SweepEngine(jobs=)``
    and ``$REPRO_JOBS`` share: a positive integer, or ``0``/``auto`` for
    one worker per CPU.

    A negative or unparsable value raises — silently falling back to
    one sequential worker masked typos like ``REPRO_JOBS=four`` and
    made "parallel" runs mysteriously slow.  ``source`` names the
    setting in the error message.
    """
    text = str(raw).strip().lower()
    if text == "auto":
        return os.cpu_count() or 1
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            "invalid %s %r: expected a positive integer, 0 or 'auto'"
            % (source, raw)) from None
    if value < 0:
        raise ValueError(
            "invalid %s %r: worker count cannot be negative"
            % (source, raw))
    return value or os.cpu_count() or 1


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (unset: 1, sequential)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    return parse_jobs(raw, JOBS_ENV) if raw else 1


class SweepJobError(RuntimeError):
    """One or more sweep jobs failed in every attempt they were given.

    The sibling jobs' results were still stored in the memo/disk cache
    before this was raised, so a re-run only re-simulates the failing
    (workload, mode) pairs.  ``failures`` lists them as
    ``(workload, mode_value, detail)`` triples where ``detail`` carries
    the worker-side traceback (sanely truncated); ``report`` — when the
    sweep went through the fault-tolerant scheduler — is the full
    :class:`~repro.experiments.faults.SweepReport` with every attempt's
    class and duration.
    """

    def __init__(self, failures: List[Tuple[str, str, str]],
                 report: Optional[SweepReport] = None):
        self.failures = list(failures)
        self.report = report
        detail = "; ".join("(%s, %s): %s" % f for f in self.failures)
        super().__init__(
            "%d sweep job(s) failed — completed siblings were cached — %s"
            % (len(self.failures), detail))


def _execute_job(job: Tuple[str, ProcessorConfig]) -> SimResult:
    """Worker entry point: one self-contained simulation."""
    name, config = job
    return simulate(build_workload(name), config, name=name)


def _execute_job_guarded(job: Tuple[str, ProcessorConfig]
                         ) -> Tuple[bool, object]:
    """Worker entry point that never raises.

    Returns ``(True, result)`` or ``(False, JobFailure)`` so a
    crashing job cannot abort the sweep and discard every completed
    sibling.  The failure payload is a picklable
    :class:`~repro.experiments.faults.JobFailure` — not every
    exception object survives pickling back from a worker — and it
    ships ``traceback.format_exc()`` so worker failures stay
    debuggable from the supervisor.
    """
    try:
        return True, _execute_job(job)
    except Exception as exc:  # noqa: BLE001 — isolate *any* job failure
        return False, JobFailure.from_exception(exc)


class SweepEngine:
    """Runs (workload, mode) sweeps through memo + disk cache + the
    fault-tolerant worker scheduler (see :mod:`repro.experiments.faults`).

    ``job_timeout`` (positive seconds, default ``None``: no deadline)
    kills a pool worker whose job runs past it; a job that failed the
    pool for any reason runs once more, serially, in this process.
    After a ``sweep`` that ran any job, ``last_report`` holds the
    :class:`~repro.experiments.faults.SweepReport` accounting for
    every attempt.  ``jobs`` follows :func:`parse_jobs` (default
    ``$REPRO_JOBS`` else 1).
    """

    def __init__(self,
                 jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 use_cache: bool = True,
                 job_timeout: Optional[float] = None):
        self.jobs = (default_jobs() if jobs is None
                     else parse_jobs(jobs))
        self.cache = cache if cache is not None else ResultCache()
        self.use_cache = use_cache
        self.memo: Dict[str, SimResult] = {}
        if job_timeout is not None and not 0 < job_timeout < math.inf:
            raise ValueError("invalid job_timeout %r: expected positive, "
                             "finite seconds or None" % (job_timeout,))
        self.job_timeout = job_timeout
        self.last_report: Optional[SweepReport] = None

    # -------------------------------------------------------------- lookup --

    def _lookup(self, name: str,
                config: ProcessorConfig) -> Optional[SimResult]:
        key = cache_key(name, config)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if self.use_cache:
            hit = self.cache.get(name, config)
            if hit is not None:
                self.memo[key] = hit
                return hit
        return None

    def _store(self, name: str, config: ProcessorConfig,
               result: SimResult) -> None:
        self.memo[cache_key(name, config)] = result
        if self.use_cache:
            self.cache.put(name, config, result)

    # ------------------------------------------------------------- execute --

    @staticmethod
    def _preload(jobs: List[Tuple[str, ProcessorConfig]]) -> None:
        """Capture every distinct workload trace exactly once, and
        pre-extract the oracle pair sets fusion-consuming jobs will
        need, before the pool forks.

        ``fork`` workers then inherit the loaded traces and pair sets
        via copy-on-write and replay instead of re-interpreting, while
        ``spawn`` workers reload the same traces from the persistent
        store.  Repeats are free: the workload memo and the per-trace
        pair memo both deduplicate.
        """
        for name, config in jobs:
            trace = build_workload(name)
            if config.fusion_mode in (FusionMode.HELIOS, FusionMode.ORACLE):
                cached_oracle_pairs(
                    trace, granularity=config.cache_access_granularity,
                    max_distance=config.max_fusion_distance)

    def _execute(self, jobs: List[Tuple[str, ProcessorConfig]]
                 ) -> List[Tuple[bool, object]]:
        """Run every job through the fault-tolerant scheduler.

        Returns one ``(ok, result_or_failure)`` pair per job, in job
        order — a crashing, hung, or killed job reports
        ``(False, JobFailure)`` instead of aborting the run and
        discarding its completed siblings.  The per-attempt account is
        left in ``self.last_report``.
        """
        workers = min(self.jobs, len(jobs))
        if workers > 1:
            self._preload(jobs)
        labels = [(name, config.fusion_mode.value)
                  for name, config in jobs]
        outcomes, report = run_jobs(
            jobs, _execute_job_guarded, labels, workers=workers,
            timeout=self.job_timeout)
        self.last_report = report
        return outcomes

    # --------------------------------------------------------------- sweeps --

    def sweep(self,
              modes: Iterable[FusionMode],
              workloads: Optional[List[str]] = None,
              config: Optional[ProcessorConfig] = None,
              ) -> Dict[str, Dict[str, SimResult]]:
        """Sweep workloads × modes; returns results[workload][mode.value].

        Cache misses are simulated in parallel (``self.jobs`` worker
        processes); everything else is served from the memo/disk cache.
        """
        names = (list(workloads) if workloads is not None
                 else workload_names())
        ensure_known(names)
        modes = list(modes)
        base = config or ProcessorConfig()

        results: Dict[str, Dict[str, SimResult]] = {n: {} for n in names}
        missing: List[Tuple[str, ProcessorConfig]] = []
        for name in names:
            for mode in modes:
                full = base.with_mode(mode)
                hit = self._lookup(name, full)
                if hit is not None:
                    results[name][mode.value] = hit
                else:
                    missing.append((name, full))

        if missing:
            failures: List[Tuple[str, str, str]] = []
            for (name, full), (ok, outcome) in zip(missing,
                                                   self._execute(missing)):
                if ok:
                    self._store(name, full, outcome)
                    results[name][full.fusion_mode.value] = outcome
                else:
                    failures.append((name, full.fusion_mode.value,
                                     outcome.describe()))
            if failures:
                # Every successful sibling is already in the memo/disk
                # cache; re-running the sweep re-simulates only these.
                raise SweepJobError(failures, report=self.last_report)
        return results
