#!/usr/bin/env python
"""CI robustness drill: a full sweep with faults injected into workers.

Usage::

    PYTHONPATH=src python tools/fault_drill.py [options]

Checks the sweep's failure policy end to end:

1. **Baseline** — a fault-free, serial, uncached sweep of the requested
   workloads × modes (the ground truth every other path must match
   bit-for-bit).
2. **Faulted parallel sweep** — the same sweep through the
   fault-tolerant scheduler, with every 4th job in sweep order made to
   fail in its pool worker, cycling through the three failure classes:
   ``os._exit`` (a lost worker), ``raise`` and a hang that the per-job
   deadline kills.  The faults are injected by wrapping the engine's
   ``_execute_job``, which forked workers inherit; the wrapper faults
   only in a pool worker, never in the supervisor.
3. **Verification** — the faulted sweep must complete, every result
   must equal the baseline exactly (compared as full ``to_dict``
   payloads), the results must round-trip through the persistent cache
   (a second cache reader must be served every pair from disk,
   unchanged), and the :class:`SweepReport` must show each faulted job
   as ``pool <class>, serial ok``, each other job as ``pool ok``, and
   each of the three failure classes at least once.

Exit status 0 when every check holds; 1 otherwise (with a diagnostic
and the report rendered to stdout).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import FusionMode, ProcessorConfig  # noqa: E402
from repro.experiments import engine as engine_mod  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.engine import SweepEngine, SweepJobError  # noqa: E402
from repro.experiments.faults import (  # noqa: E402
    OUTCOME_LOST,
    OUTCOME_OK,
    OUTCOME_RAISE,
    OUTCOME_TIMEOUT,
)
from repro.workloads import ensure_known, workload_names  # noqa: E402

#: Every FAULT_EVERY-th job in sweep order faults, cycling through
#: these kinds; each maps to the failure class the report must show.
FAULT_EVERY = 4
FAULT_KINDS = (("exit", OUTCOME_LOST), ("raise", OUTCOME_RAISE),
               ("hang", OUTCOME_TIMEOUT))

_MODES = {mode.value.lower(): mode for mode in FusionMode}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all 32)")
    parser.add_argument("--modes", default="NoFusion,Helios",
                        help="comma-separated fusion modes "
                             "(default: NoFusion,Helios)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the faulted sweep")
    parser.add_argument("--job-timeout", type=float, default=20.0,
                        help="per-job deadline in seconds (bounds every "
                             "injected hang; default 20)")
    parser.add_argument("--report-out", default=None, metavar="FILE",
                        help="also write the SweepReport JSON here")
    return parser.parse_args(argv)


def fail(message):
    print("FAULT DRILL FAILED: %s" % message)
    return 1


def result_grid(results, names, modes):
    return {name: {mode.value: results[name][mode.value].to_dict()
                   for mode in modes} for name in names}


def fault_plan(names, modes):
    """``{(workload, mode_value): (kind, outcome)}`` for the faulted jobs."""
    cells = [(name, mode.value) for name in names for mode in modes]
    return {cell: FAULT_KINDS[(index // FAULT_EVERY) % len(FAULT_KINDS)]
            for index, cell in enumerate(cells)
            if index % FAULT_EVERY == 0}


def faulty(execute, plan):
    """Wrap the engine's job function to fault planned jobs in workers."""
    def execute_with_faults(job):
        name, config = job
        kind, _ = plan.get((name, config.fusion_mode.value), (None, None))
        if kind is not None and multiprocessing.parent_process() is not None:
            if kind == "exit":
                os._exit(86)           # abrupt death: SIGKILL/OOM stand-in
            if kind == "raise":
                raise RuntimeError("drill fault in %s/%s"
                                   % (name, config.fusion_mode.value))
            while True:                # hang: killed by the job deadline
                time.sleep(0.5)
        return execute(job)
    return execute_with_faults


def verify_report(report, plan, expected_jobs):
    """Every attempt accounted for; returns a list of problems."""
    problems = []
    if len(report.jobs) != expected_jobs:
        problems.append("report covers %d job(s), expected %d"
                        % (len(report.jobs), expected_jobs))
    for job in report.jobs:
        _, outcome = plan.get((job.workload, job.mode), (None, None))
        expected = [("pool", OUTCOME_OK)] if outcome is None \
            else [("pool", outcome), ("serial", OUTCOME_OK)]
        trail = [(a.where, a.outcome) for a in job.attempts]
        if not job.ok or trail != expected:
            problems.append("%s/%s ran %s, expected %s"
                            % (job.workload, job.mode, trail, expected))
    missing = sorted({outcome for _, outcome in FAULT_KINDS}
                     - set(report.failure_classes()))
    if missing:
        problems.append("failure class(es) never observed: %s"
                        % ", ".join(missing))
    return problems


def main(argv=None):
    args = parse_args(argv)
    names = ([n.strip() for n in args.workloads.split(",") if n.strip()]
             if args.workloads else workload_names())
    ensure_known(names)
    try:
        modes = [_MODES[m.strip().lower()]
                 for m in args.modes.split(",") if m.strip()]
    except KeyError as exc:
        raise SystemExit("unknown mode %s; choose from: %s"
                         % (exc, ", ".join(m.value for m in FusionMode))) from exc
    expected_jobs = len(names) * len(modes)
    plan = fault_plan(names, modes)

    # 1. Fault-free serial baseline.
    print("baseline: %d workload(s) x %d mode(s), serial, uncached"
          % (len(names), len(modes)))
    baseline_engine = SweepEngine(jobs=1, use_cache=False)
    baseline = result_grid(baseline_engine.sweep(modes, workloads=names),
                           names, modes)

    # 2. Faulted parallel sweep into a fresh persistent cache.
    cache_dir = os.path.join(
        os.environ.get("REPRO_CACHE_DIR", "."), "fault-drill-cache")
    cache = ResultCache(cache_dir)
    cache.clear()
    print("faulted sweep: %d of %d job(s) fault in the pool, %d worker(s), "
          "timeout %.0fs" % (len(plan), expected_jobs, args.jobs,
                             args.job_timeout))
    engine = SweepEngine(jobs=args.jobs, cache=cache, use_cache=True,
                         job_timeout=args.job_timeout)
    real = engine_mod._execute_job
    engine_mod._execute_job = faulty(real, plan)
    try:
        faulted = result_grid(engine.sweep(modes, workloads=names),
                              names, modes)
    except SweepJobError as exc:
        if exc.report is not None:
            print(exc.report.render())
        return fail("sweep did not survive the faults: %s" % exc)
    finally:
        engine_mod._execute_job = real

    report = engine.last_report
    if report is None:
        return fail("no SweepReport left by the sweep")
    print(report.render())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print("wrote %s" % args.report_out)

    # 3a. Bit-identical to the fault-free serial baseline.
    mismatched = [(n, m.value) for n in names for m in modes
                  if faulted[n][m.value] != baseline[n][m.value]]
    if mismatched:
        return fail("%d result(s) differ from the fault-free serial "
                    "baseline: %s" % (len(mismatched), mismatched[:5]))
    print("results: all %d identical to the fault-free serial baseline"
          % expected_jobs)

    # 3b. Cache-verified: a second reader is served every pair from
    #     disk, still bit-identical.
    reader = ResultCache(cache_dir)
    for name in names:
        for mode in modes:
            hit = reader.get(name, ProcessorConfig().with_mode(mode))
            if hit is None:
                return fail("cache miss for (%s, %s) after the sweep"
                            % (name, mode.value))
            if hit.to_dict() != baseline[name][mode.value]:
                return fail("cached (%s, %s) differs from baseline"
                            % (name, mode.value))
    print("cache: all %d entries round-tripped bit-identically"
          % expected_jobs)

    # 3c. Each faulted job ran pool -> serial ok, every class was seen.
    problems = verify_report(report, plan, expected_jobs)
    if problems:
        return fail("; ".join(problems))
    print("report: %d attempt(s) for %d job(s); %d degraded to serial; "
          "failure classes observed: %s"
          % (report.attempts_total, len(report.jobs),
             len(report.degraded_jobs),
             ", ".join("%s %d" % kv
                       for kv in sorted(report.failure_classes().items()))))
    print("FAULT DRILL PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
