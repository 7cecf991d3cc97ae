#!/usr/bin/env python
"""CI perf gate over a ``repro bench`` payload.

Usage::

    python tools/check_perf.py [BENCH_pipeline.json]

Two checks, both against the payload the bench just wrote:

* **Throughput floor** — ``throughput.aggregate_uops_per_s`` must be at
  least ``$REPRO_PERF_FLOOR`` (µops/s).  The default floor is a
  catastrophic-regression tripwire, not a performance target: CI
  runners vary widely in speed, so it is set well below what any
  healthy run achieves while still catching an accidental return of
  interpreter-loop overhead (the pre-overhaul hot loop ran at ~20-30k
  µops/s per mode on a developer machine; an order-of-magnitude slide
  under that shows up even on the slowest runner).
* **Cycle exactness vs the committed baseline** — when the bench ran
  against an existing ``BENCH_pipeline.json`` (the CLI records the
  delta under ``vs_previous``), any moved ``cycles`` cell fails the
  gate.  Throughput wins that change timing are timing changes and
  must arrive via an explicit golden-file update instead.

A third, conditional check covers sampled simulation.  When the
payload has a ``sampled`` section (``repro bench --sample``):

* every workload's sampled speedup must reach the floor
  (``$REPRO_SAMPLED_SPEEDUP_FLOOR``, default 3x — the quick CI gate;
  full-length traces clear 5x comfortably), and
* every IPC estimate must land within its own reported
  95 %-confidence error bound (``within_bound``).

Payloads *without* a ``sampled`` section — every bench run before the
sampling subsystem existed, or any run without ``--sample`` — pass
this check vacuously.
"""

from __future__ import annotations

import json
import os
import sys

DEFAULT_FLOOR = 10_000  # µops/s; override with REPRO_PERF_FLOOR

#: Minimum sampled-vs-full-detail speedup per workload; override with
#: REPRO_SAMPLED_SPEEDUP_FLOOR.  Quick-mode scaled traces (500k µ-ops)
#: clear ~6-7x on a developer machine; 3x keeps headroom for slow CI
#: runners while still catching a sampler that stopped skipping work.
DEFAULT_SAMPLED_SPEEDUP_FLOOR = 3.0


def check_sampled(payload, floor) -> bool:
    """Gate the ``sampled`` section; returns True on failure.

    Absent section (pre-sampling payload or a run without ``--sample``)
    passes: the gate only judges measurements that were actually taken.
    """
    sampled = payload.get("sampled") or {}
    rows = sampled.get("rows") or {}
    if not rows:
        print("check_perf: no sampled section (run with --sample to "
              "gate sampled simulation)")
        return False
    failed = False
    for name, row in rows.items():
        speedup = row.get("speedup")
        exact = row.get("exact")
        within = row.get("within_bound", False)
        err = 100 * row.get("ipc_err_vs_full", 0.0)
        bound = 100 * row.get("ipc_rel_err_bound", 0.0)
        print("check_perf: sampled %-12s %5.1fx  err %+.2f%% "
              "(bound ±%.2f%%)%s"
              % (name, speedup or 0.0, err, bound,
                 "  [exact fallback]" if exact else ""))
        if exact:
            # Degenerate tiny-trace fallback: exact numbers, no
            # speedup expectation.
            continue
        if speedup is None or speedup < floor:
            print("check_perf: FAIL — %s sampled speedup below %.1fx"
                  % (name, floor))
            failed = True
        if not within:
            print("check_perf: FAIL — %s IPC estimate outside its "
                  "reported confidence bound" % name)
            failed = True
    return failed


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    path = argv[0] if argv else "BENCH_pipeline.json"
    floor = int(os.environ.get("REPRO_PERF_FLOOR", DEFAULT_FLOOR))

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print("check_perf: cannot read %s: %s" % (path, exc))
        return 2

    throughput = payload.get("throughput") or {}
    aggregate = throughput.get("aggregate_uops_per_s")
    if aggregate is None:
        print("check_perf: %s has no throughput block "
              "(bench predates the profiling subsystem?)" % path)
        return 2
    print("check_perf: aggregate throughput %d µops/s (floor %d)"
          % (aggregate, floor))
    failed = False
    if aggregate < floor:
        print("check_perf: FAIL — below the µops/s floor")
        failed = True

    delta = payload.get("vs_previous")
    if delta:
        compared = delta.get("cells_compared", 0)
        if delta.get("cycles_identical", True):
            print("check_perf: cycles identical to previous bench "
                  "(%d cells compared)" % compared)
        else:
            mismatches = delta.get("cycle_mismatches", [])
            print("check_perf: FAIL — %d (workload, mode) cell(s) "
                  "changed cycles vs the committed baseline:"
                  % len(mismatches))
            for line in mismatches:
                print("  " + line)
            failed = True
        speedup = delta.get("aggregate_speedup")
        if speedup:
            print("check_perf: %.3fx aggregate µops/s vs previous bench"
                  % speedup)
    else:
        print("check_perf: no previous bench to compare against")

    sampled_floor = float(os.environ.get("REPRO_SAMPLED_SPEEDUP_FLOOR",
                                         DEFAULT_SAMPLED_SPEEDUP_FLOOR))
    failed = check_sampled(payload, sampled_floor) or failed

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
