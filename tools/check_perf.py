#!/usr/bin/env python
"""CI perf gate: a µops/s tripwire, sampled gates, a census floor.

Usage::

    PYTHONPATH=src python tools/check_perf.py

Takes no arguments, reads no environment variable and writes no file.
It measures and checks in one process, prints one line per cell or row,
and exits non-zero on any failure.  Three checks:

1. **µops/s tripwire.**  605.mcf, 657.xz_1 and dijkstra run under
   NoFusion and Helios at the default capture.  Σ committed µ-ops /
   Σ ``PipelineCore.run`` seconds over those six cells must reach
   :data:`UOPS_PER_S_FLOOR`.  This is a catastrophic-regression floor,
   not a target: CI runners are slow and shared, and a healthy run
   clears it several times over.  Speed itself is measured by
   ``reprobench/``, with noise bounds.  The cells' cycles are checked
   against their full-length pins by ``tools/check_claims.py``, with
   the other 186.
2. **Sampled simulation.**  The same workloads, scaled to
   :data:`SAMPLED_UOPS` µ-ops, run under Helios in full detail (oracle
   pairing + pipeline run) and through ``sampled_simulate`` with
   :data:`SAMPLED_WINDOWS` strata of :data:`SAMPLED_DETAIL_UOPS`-µ-op
   windows.  The speedup must reach :data:`SAMPLED_SPEEDUP_FLOOR`
   unless the estimate fell back to exact full detail, and the IPC
   error against full detail must lie within the estimate's reported
   95 %-confidence bound.
3. **Census tripwire.**  The oracle census behind Figures 2, 4, 5 and
   Table I (:func:`repro.fusion.oracle.analyze_trace`), run once over
   every catalog trace with nothing memoised, must reach
   :data:`CENSUS_UOPS_PER_S_FLOOR` µ-ops per second.  Like check 1,
   this is a catastrophic-regression floor, not a target.

The check functions are pure (measured rows in, failure text out) so
``tests/test_check_perf.py`` can exercise them without simulating.
"""

from __future__ import annotations

import gc
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("605.mcf", "657.xz_1", "dijkstra")
MODES = ("NoFusion", "Helios")

#: µops/s over the six full-length cells.
UOPS_PER_S_FLOOR = 10_000

#: µops/s of the catalog census: about a quarter of the 430-650k a
#: shared 2-vCPU VM measures.
CENSUS_UOPS_PER_S_FLOOR = 140_000

SAMPLED_UOPS = 500_000
SAMPLED_WINDOWS = 16
SAMPLED_DETAIL_UOPS = 1000
#: Scaled 500k-µ-op traces clear 4.5-8x on a 2-vCPU VM; 3x leaves
#: headroom for slow runners and still catches a sampler that stopped
#: skipping work.
SAMPLED_SPEEDUP_FLOOR = 3.0


def uops_per_s(cells: list[dict]) -> float:
    seconds = sum(cell["run_s"] for cell in cells)
    return sum(cell["uops"] for cell in cells) / seconds if seconds else 0.0


def throughput_failure(cells: list[dict]) -> str | None:
    rate = uops_per_s(cells)
    if rate < UOPS_PER_S_FLOOR:
        return "%.0f µops/s is below the %d floor" % (rate, UOPS_PER_S_FLOOR)
    return None


def sampled_failure(row: dict) -> str | None:
    """Why a sampled row fails its gates, or None.  An exact fallback
    has numbers, not estimates, and no speedup to expect."""
    if row["exact"]:
        return None
    if row["speedup"] < SAMPLED_SPEEDUP_FLOOR:
        return "speedup %.1fx is below %.1fx" % (row["speedup"],
                                                 SAMPLED_SPEEDUP_FLOOR)
    if abs(row["ipc_err"]) > row["ipc_err_bound"]:
        return "IPC error %+.2f%% is outside its bound ±%.2f%%" % (
            100 * row["ipc_err"], 100 * row["ipc_err_bound"])
    return None


def census_rate(row: dict) -> float:
    return row["uops"] / row["census_s"] if row["census_s"] else 0.0


def census_failure(row: dict) -> str | None:
    rate = census_rate(row)
    if rate < CENSUS_UOPS_PER_S_FLOOR:
        return "%.0f µops/s is below the %d floor" % (
            rate, CENSUS_UOPS_PER_S_FLOOR)
    return None


def _timed(fn, *args, **kwargs):
    # Collect first: the previous step's garbage must not land in the
    # timed one.  PipelineCore.run pauses the cyclic GC itself.
    gc.collect()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def measure_cells() -> list[dict]:
    from repro.config import FusionMode, ProcessorConfig
    from repro.pipeline.core import PipelineCore
    from repro.workloads import build_workload

    cells = []
    for name in WORKLOADS:
        trace = build_workload(name)
        for mode in MODES:
            core = PipelineCore(trace,
                                ProcessorConfig().with_mode(FusionMode(mode)))
            stats, run_s = _timed(core.run)
            cells.append({"workload": name, "mode": mode,
                          "cycles": stats.cycles,
                          "uops": stats.instructions, "run_s": run_s})
    return cells


def measure_sampled() -> list[dict]:
    from repro.config import FusionMode, ProcessorConfig
    from repro.fusion.oracle import oracle_memory_pairs
    from repro.pipeline.core import PipelineCore
    from repro.sampling import (
        DETAIL_PREFIX_UOPS,
        build_scaled_workload,
        sampled_simulate,
    )

    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    rows = []
    for name in WORKLOADS:
        trace = build_scaled_workload(name, SAMPLED_UOPS)
        pairs, pairs_s = _timed(
            oracle_memory_pairs, trace,
            granularity=config.cache_access_granularity,
            max_distance=config.max_fusion_distance)
        core = PipelineCore(trace, config, oracle_pairs=pairs)
        stats, run_s = _timed(core.run)
        del core, pairs
        est, sampled_s = _timed(
            sampled_simulate, trace, config, windows=SAMPLED_WINDOWS,
            name=name, detail=SAMPLED_DETAIL_UOPS,
            prefix=DETAIL_PREFIX_UOPS)
        rows.append({"workload": name, "uops": len(trace),
                     "speedup": (pairs_s + run_s) / sampled_s,
                     "ipc_err": (est.ipc_estimate - stats.ipc) / stats.ipc,
                     "ipc_err_bound": est.ipc_rel_err,
                     "exact": est.exact})
    return rows


def measure_census() -> dict:
    """The census over every catalog trace.  No earlier check runs it,
    so each trace's oracle memo starts cold."""
    from repro.fusion.oracle import analyze_trace
    from repro.workloads import build_workload, workload_names

    traces = [build_workload(name) for name in workload_names()]
    _, census_s = _timed(lambda: [analyze_trace(trace) for trace in traces])
    return {"traces": len(traces), "uops": sum(map(len, traces)),
            "census_s": census_s}


def _report(label: str, failure: str | None) -> bool:
    print("check_perf: %s  %s" % (label, "FAIL: " + failure if failure
                                  else "ok"))
    return failure is not None


def main() -> int:
    failed = False
    cells = measure_cells()
    for cell in cells:
        print("check_perf: %-9s %-8s %7d cycles  %6.2f s"
              % (cell["workload"], cell["mode"], cell["cycles"],
                 cell["run_s"]))
    failed |= _report("throughput %.0f µops/s (floor %d)"
                      % (uops_per_s(cells), UOPS_PER_S_FLOOR),
                      throughput_failure(cells))
    for row in measure_sampled():
        failed |= _report(
            "sampled %-9s %d µ-ops  %5.1fx  IPC error %+.2f%% "
            "(bound ±%.2f%%)%s"
            % (row["workload"], row["uops"], row["speedup"],
               100 * row["ipc_err"], 100 * row["ipc_err_bound"],
               "  [exact fallback]" if row["exact"] else ""),
            sampled_failure(row))
    census = measure_census()
    failed |= _report(
        "census %d traces  %d µ-ops  %.2f s  %.0f µops/s (floor %d)"
        % (census["traces"], census["uops"], census["census_s"],
           census_rate(census), CENSUS_UOPS_PER_S_FLOOR),
        census_failure(census))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.exit(main())
