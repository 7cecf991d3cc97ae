#!/usr/bin/env python
"""CI robustness drill: a full sweep under injected worker faults.

Usage::

    PYTHONPATH=src python tools/fault_drill.py [options]

Implements the PR's acceptance check end to end:

1. **Baseline** — a fault-free, serial, uncached sweep of the requested
   workloads × modes (the ground truth every other path must match
   bit-for-bit).
2. **Faulted parallel sweep** — the same sweep through the
   fault-tolerant scheduler with ``REPRO_FAULT_INJECT`` arming kill
   (``exit``), ``hang`` and ``raise`` faults inside the workers, a
   per-job deadline, and the retry/degradation policy at its defaults.
   Injection decisions are a pure hash of (workload, mode, attempt), so
   the drill exercises the same fault pattern on every run.
3. **Verification** — the faulted sweep must complete, every result
   must equal the baseline exactly (compared as full ``to_dict``
   payloads), the results must round-trip through the persistent cache
   (a second engine with a cold memo must be served every pair from
   disk, unchanged), and the :class:`SweepReport` must account for
   every attempt: each failed attempt retried or degraded, each job's
   final attempt ``ok``.

Exit status 0 when every check holds; 1 otherwise (with a diagnostic
and the report rendered to stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import FusionMode, ProcessorConfig  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.engine import SweepEngine, SweepJobError  # noqa: E402
from repro.experiments.faults import (  # noqa: E402
    FAULT_INJECT_ENV,
    OUTCOME_OK,
)
from repro.workloads import ensure_known, workload_names  # noqa: E402

#: Default injection mix: all three fault classes armed, ~24% of pool
#: attempts fail.  Degradation guarantees completion: a job that draws
#: two pool faults runs its final attempt serially in the supervisor,
#: where injection never fires.
DEFAULT_SPEC = "hang:0.06,exit:0.08,raise:0.10"

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
    parser.add_argument("--spec", default=DEFAULT_SPEC,
                        help="REPRO_FAULT_INJECT spec (default: %r)"
                             % DEFAULT_SPEC)
    parser.add_argument("--job-timeout", type=float, default=20.0,
                        help="per-job deadline in seconds (bounds every "
                             "injected hang; default 20)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retry budget per job (default 2 — enough "
                             "to guarantee a degraded-serial attempt)")
    parser.add_argument("--report-out", default=None, metavar="FILE",
                        help="also write the SweepReport JSON here")
    return parser.parse_args(argv)


def fail(message):
    print("FAULT DRILL FAILED: %s" % message)
    return 1


def result_grid(results, names, modes):
    return {name: {mode.value: results[name][mode.value].to_dict()
                   for mode in modes} for name in names}


def verify_report(report, expected_jobs):
    """Every attempt accounted for; returns a list of problems."""
    problems = []
    if len(report.jobs) != expected_jobs:
        problems.append("report covers %d job(s), expected %d"
                        % (len(report.jobs), expected_jobs))
    for job in report.jobs:
        label = "%s/%s" % (job.workload, job.mode)
        if not job.ok or not job.attempts:
            problems.append("%s did not complete" % label)
            continue
        if job.attempts[-1].outcome != OUTCOME_OK:
            problems.append("%s marked ok but last attempt is %r"
                            % (label, job.attempts[-1].outcome))
        for earlier in job.attempts[:-1]:
            if earlier.outcome == OUTCOME_OK:
                problems.append("%s has an ok attempt before the last"
                                % label)
        # A job that failed the pool twice must have degraded.
        pool_failures = sum(1 for a in job.attempts
                            if a.where == "pool"
                            and a.outcome != OUTCOME_OK)
        if pool_failures >= 2 and not job.degraded:
            problems.append("%s failed the pool twice without "
                            "degrading to serial" % label)
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

    # 1. Fault-free serial baseline (injection-immune by construction,
    #    but keep the environment clean anyway).
    os.environ.pop(FAULT_INJECT_ENV, None)
    print("baseline: %d workload(s) x %d mode(s), serial, uncached"
          % (len(names), len(modes)))
    baseline_engine = SweepEngine(jobs=1, use_cache=False)
    baseline = result_grid(baseline_engine.sweep(modes, workloads=names),
                           names, modes)

    # 2. Faulted parallel sweep into a fresh persistent cache.
    os.environ[FAULT_INJECT_ENV] = args.spec
    cache_dir = os.path.join(
        os.environ.get("REPRO_CACHE_DIR", "."), "fault-drill-cache")
    cache = ResultCache(cache_dir)
    cache.clear()
    print("faulted sweep: %s=%s, %d worker(s), timeout %.0fs, retries %d"
          % (FAULT_INJECT_ENV, args.spec, args.jobs, args.job_timeout,
             args.retries))
    engine = SweepEngine(jobs=args.jobs, cache=cache, use_cache=True,
                         job_timeout=args.job_timeout,
                         retries=args.retries)
    try:
        faulted = result_grid(engine.sweep(modes, workloads=names),
                              names, modes)
    except SweepJobError as exc:
        if exc.report is not None:
            print(exc.report.render())
        return fail("sweep did not survive injection: %s" % exc)
    finally:
        os.environ.pop(FAULT_INJECT_ENV, None)

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

    # 3b. Cache-verified: a cold-memo engine is served every pair from
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

    # 3c. The report accounts for every retry and degradation.
    problems = verify_report(report, expected_jobs)
    if problems:
        return fail("; ".join(problems))
    classes = report.failure_classes()
    print("report: %d attempt(s) for %d job(s); %d retried, %d degraded"
          % (report.attempts_total, len(report.jobs),
             len(report.retried_jobs), len(report.degraded_jobs)))
    if classes:
        print("injected failure classes observed: %s"
              % ", ".join("%s %d" % kv for kv in sorted(classes.items())))
    print("FAULT DRILL PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
