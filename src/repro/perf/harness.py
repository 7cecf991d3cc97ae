"""The measurements behind ``repro bench``.

Every number answers one question about the hot path a sweep pays for:

* ``trace_build_cold_s`` — interpret the kernel from scratch (what
  every job used to cost before the trace store existed).
* ``store_save_s`` / ``store_load_s`` — serialize the captured trace
  into the binary store and replay it back (what a warm job costs).
* ``oracle_pairs_s`` — one unrestricted oracle pairing pass (shared
  across the Helios/Oracle configurations of a sweep).
* ``modes[<mode>].run_s`` — one :meth:`PipelineCore.run` under each
  fusion mode, the irreducible per-configuration cost.
* ``observability`` — the instrumentation tax, measured on one
  representative workload: a run with top-down accounting disabled
  (``bare``), the default run (``noop`` — accounting on, no event
  observer), and a fully traced run.  ``noop_overhead_pct`` is the
  number the observability layer promises to keep small: the default
  simulation path must not pay for the tracing it isn't doing.

Timings use ``time.perf_counter`` around single runs — this is a
trend harness (is the hot path getting faster PR over PR?), not a
microbenchmark; run-to-run noise of a few percent is expected and
fine at the multi-second scale the totals live at.  The one exception
is the observability triple, which interleaves best-of-N runs because
it measures a small *difference* between large numbers.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.config import FusionMode, ProcessorConfig
from repro.fusion.oracle import oracle_memory_pairs, predictive_pairs_from
from repro.isa.interp import run_program
from repro.pipeline.core import PipelineCore
from repro.workloads import (
    DEFAULT_MAX_UOPS,
    TraceStore,
    build_program,
    ensure_known,
    workload_names,
)

#: Default output filename (repo-root relative when run from the CLI).
BENCH_OUTPUT_DEFAULT = "BENCH_pipeline.json"

#: Representative subset mirroring benchmarks/conftest.py: store-bound,
#: struct-walk, pointer-chase, Others-dominated, DBR, branchy, crypto.
DEFAULT_BENCH_WORKLOADS = [
    "600.perlbench_1", "602.gcc_1", "605.mcf", "623.xalancbmk",
    "657.xz_1", "657.xz_2", "bitcount", "dijkstra", "qsort",
    "rijndael", "sha", "typeset",
]

#: CI smoke subset (``repro bench --quick``).
QUICK_BENCH_WORKLOADS = ["605.mcf", "657.xz_1", "dijkstra"]

_BENCH_MODES = [
    FusionMode.NONE, FusionMode.RISCV, FusionMode.CSF_SBR,
    FusionMode.RISCV_PP, FusionMode.HELIOS, FusionMode.ORACLE,
]
_QUICK_MODES = [FusionMode.NONE, FusionMode.HELIOS]


def bench_workloads(selection: Optional[str] = None,
                    quick: bool = False) -> List[str]:
    """Workload list from an explicit selection, ``$REPRO_BENCH_WORKLOADS``,
    or the (quick) default subset — validated against the catalog."""
    if selection is None:
        selection = os.environ.get("REPRO_BENCH_WORKLOADS", "")
    if selection.lower() == "all":
        return workload_names()
    if selection:
        return ensure_known([name.strip() for name in selection.split(",")
                             if name.strip()])
    return list(QUICK_BENCH_WORKLOADS if quick else DEFAULT_BENCH_WORKLOADS)


def _timed(fn):
    # Collect before the clock starts: a trace is ~6 containers per
    # µ-op, so whichever stage happens to trigger a gen-2 GC pass
    # would otherwise absorb a multi-ms pause that belongs to the
    # *previous* stage's garbage.
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


#: Representative workload for the observability-overhead triple
#: (falls back to the first benched workload when absent).
OBS_OVERHEAD_WORKLOAD = "657.xz_1"

#: Interleaved repetitions per variant for the overhead triple.  The
#: headline deltas are a few percent of a ~0.6 s run, so the best-of-N
#: needs more samples than the trend timings to beat scheduler noise.
OBS_OVERHEAD_REPS = 7


def measure_obs_overhead(trace, config, oracle_pairs=None,
                         reps: int = OBS_OVERHEAD_REPS) -> Dict:
    """Time bare / no-op / traced pipeline runs on one trace.

    * ``bare`` — ``topdown=False``: the pipeline with every optional
      accounting hook off (the pre-observability baseline).
    * ``noop`` — the default: top-down slot accounting on, no event
      observer attached.  This is what every sweep job runs.
    * ``traced`` — a :class:`~repro.obs.PipelineObserver` attached:
      full event ring + occupancy sampling.

    * ``sanitized`` — the µ-arch sanitizer armed
      (:class:`~repro.analysis.sanitizer.Sanitizer`): per-cycle
      invariant assertions over rename/LSQ/ROB state.  The companion
      contract is ``sanitize_off_overhead_pct``: a default run must
      not pay for the sanitizer hooks it isn't using.

    The variants are interleaved and each takes its best-of-N, so a
    load spike hits all of them rather than biasing one; the headline
    ``noop_overhead_pct`` is a small difference between large numbers
    and single runs would drown it in scheduler noise.
    """
    from repro.analysis.sanitizer import Sanitizer
    from repro.obs import PipelineObserver

    def _run(**kwargs):
        core = PipelineCore(trace, config, oracle_pairs=oracle_pairs,
                            **kwargs)
        _, seconds = _timed(core.run)
        return seconds

    best = {"bare": float("inf"), "noop": float("inf"),
            "traced": float("inf"), "sanitized": float("inf"),
            "sanitize_off": float("inf")}
    for _ in range(max(1, reps)):
        # The paired variants run back-to-back (noop/sanitize_off are
        # the same code; their delta is the claimed hook cost) and the
        # sanitized run goes last: it is ~5x slower, and whatever
        # thermal/frequency state it leaves behind must not land on a
        # cheap variant mid-rep.
        best["bare"] = min(best["bare"], _run(topdown=False))
        best["noop"] = min(best["noop"], _run())
        best["sanitize_off"] = min(best["sanitize_off"],
                                   _run(sanitizer=None))
        best["traced"] = min(best["traced"],
                             _run(observer=PipelineObserver()))
        best["sanitized"] = min(best["sanitized"],
                                _run(sanitizer=Sanitizer()))

    def _pct(variant: str, baseline: str = "bare") -> float:
        return round(100.0 * (best[variant] / best[baseline] - 1.0), 2)

    return {
        "reps": max(1, reps),
        "bare_run_s": round(best["bare"], 4),
        "noop_run_s": round(best["noop"], 4),
        "traced_run_s": round(best["traced"], 4),
        "sanitized_run_s": round(best["sanitized"], 4),
        "sanitize_off_run_s": round(best["sanitize_off"], 4),
        "noop_overhead_pct": _pct("noop"),
        "traced_overhead_pct": _pct("traced"),
        #: Cost of a diagnostic run with the sanitizer armed, over the
        #: default run it replaces (both carry normal accounting).
        "sanitize_on_overhead_pct": _pct("sanitized", "noop"),
        #: Cost a default run pays for the disarmed sanitizer hooks:
        #: an explicit ``sanitizer=None`` run against the default run.
        #: The two execute the same code, so this measures the bench
        #: noise floor the hooks must stay under (<2 %).
        "sanitize_off_overhead_pct": _pct("sanitize_off", "noop"),
    }


#: Workloads for the full (non-quick) sampled-simulation section:
#: the quick trio plus two steady kernels with distinct CPI profiles.
SAMPLED_BENCH_WORKLOADS = [
    "605.mcf", "657.xz_1", "dijkstra", "657.xz_2", "bitcount",
]

#: Scaled-trace length for the sampled section (full / --quick).  The
#: quick target still leaves the sampling plan feasible at the smaller
#: quick window parameters below; the natural quick traces would not
#: (a ~25k-µop trace degenerates to the exact-fallback path).
SAMPLED_FULL_TARGET_UOPS = 1_000_000
SAMPLED_QUICK_TARGET_UOPS = 500_000

#: Quick-mode sampling parameters (full mode uses the library
#: defaults: 32 strata × 1500 measured µ-ops).
SAMPLED_QUICK_WINDOWS = 16
SAMPLED_QUICK_DETAIL_UOPS = 1000


def measure_sampled(quick: bool = False,
                    config: Optional[ProcessorConfig] = None,
                    workloads: Optional[List[str]] = None) -> Dict:
    """Benchmark sampled simulation against full detail on scaled traces.

    For each workload: build (or replay) an iteration-scaled Helios
    trace, time the full-detail cost (oracle pairing + pipeline run —
    both are on the critical path of an exact Helios result), time
    :func:`~repro.sampling.sample.sampled_simulate`, and record the
    speedup plus the observed IPC error against the reported
    95 %-confidence bound.  ``within_bound`` per row is the estimator's
    self-consistency check CI gates on.
    """
    from repro.sampling import (
        DEFAULT_WINDOWS,
        DETAIL_PREFIX_UOPS,
        DETAIL_WINDOW_UOPS,
        build_scaled_workload,
        sampled_simulate,
    )

    base = config or ProcessorConfig()
    full_cfg = base.with_mode(FusionMode.HELIOS)
    if workloads is not None:
        names = ensure_known(list(workloads))
    else:
        names = list(QUICK_BENCH_WORKLOADS if quick
                     else SAMPLED_BENCH_WORKLOADS)
    target = SAMPLED_QUICK_TARGET_UOPS if quick \
        else SAMPLED_FULL_TARGET_UOPS
    windows = SAMPLED_QUICK_WINDOWS if quick else DEFAULT_WINDOWS
    detail = SAMPLED_QUICK_DETAIL_UOPS if quick else DETAIL_WINDOW_UOPS
    prefix = DETAIL_PREFIX_UOPS

    rows: Dict[str, Dict] = {}
    for name in names:
        trace = build_scaled_workload(name, target)
        pairs, pairs_s = _timed(lambda: oracle_memory_pairs(
            trace, granularity=full_cfg.cache_access_granularity,
            max_distance=full_cfg.max_fusion_distance))
        core = PipelineCore(trace, full_cfg, oracle_pairs=pairs)
        stats, sim_s = _timed(core.run)
        full_ipc = stats.ipc
        del core, pairs

        est, sampled_s = _timed(lambda: sampled_simulate(
            trace, full_cfg, windows=windows, name=name,
            detail=detail, prefix=prefix))
        full_s = pairs_s + sim_s
        err = ((est.ipc_estimate - full_ipc) / full_ipc
               if full_ipc else 0.0)
        rows[name] = {
            "uops": len(trace),
            "full_pairs_s": round(pairs_s, 4),
            "full_sim_s": round(sim_s, 4),
            "full_run_s": round(full_s, 4),
            "full_ipc": round(full_ipc, 4),
            "sampled_run_s": round(sampled_s, 4),
            "speedup": (round(full_s / sampled_s, 2)
                        if sampled_s > 0 else None),
            "ipc_estimate": round(est.ipc_estimate, 4),
            "ipc_low": round(est.ipc_low, 4),
            "ipc_high": round(est.ipc_high, 4),
            "ipc_rel_err_bound": round(est.ipc_rel_err, 5),
            "ipc_err_vs_full": round(err, 5),
            "within_bound": bool(est.exact
                                 or abs(err) <= est.ipc_rel_err),
            "exact": est.exact,
        }

    speedups = [row["speedup"] for row in rows.values()
                if row["speedup"]]
    return {
        "mode": FusionMode.HELIOS.value,
        "target_uops": target,
        "windows": windows,
        "window_uops": detail,
        "prefix_uops": prefix,
        "warmup_uops": None,  # continuous functional warming
        "rows": rows,
        "min_speedup": round(min(speedups), 2) if speedups else None,
        "max_abs_err_pct": round(
            max(abs(row["ipc_err_vs_full"]) for row in rows.values())
            * 100, 3) if rows else None,
        "all_within_bound": all(row["within_bound"]
                                for row in rows.values()),
    }


def run_bench(workloads: Optional[List[str]] = None,
              quick: bool = False,
              max_uops: Optional[int] = None,
              config: Optional[ProcessorConfig] = None,
              sample: bool = False) -> Dict:
    """Run the harness; returns the ``BENCH_pipeline.json`` payload."""
    names = (ensure_known(list(workloads)) if workloads is not None
             else bench_workloads(quick=quick))
    cap = max_uops if max_uops is not None else DEFAULT_MAX_UOPS
    base = config or ProcessorConfig()
    modes = _QUICK_MODES if quick else _BENCH_MODES

    per_workload: Dict[str, Dict] = {}
    totals = {
        "trace_build_cold_s": 0.0,
        "store_save_s": 0.0,
        "store_load_s": 0.0,
        "oracle_pairs_s": 0.0,
        "pipeline_run_s": {mode.value: 0.0 for mode in modes},
    }
    obs_name = (OBS_OVERHEAD_WORKLOAD if OBS_OVERHEAD_WORKLOAD in names
                else names[0])
    obs_mode = (FusionMode.HELIOS if FusionMode.HELIOS in modes
                else modes[-1])
    observability: Dict = {}

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        store = TraceStore(tmp)
        for name in names:
            program = build_program(name)
            trace, build_s = _timed(
                lambda: run_program(program, max_uops=cap))
            _, save_s = _timed(
                lambda: store.put(name, cap, trace, salt="bench"))
            replay, load_s = _timed(
                lambda: store.get(name, cap, salt="bench"))
            assert replay is not None and len(replay) == len(trace)
            pairs, pairs_s = _timed(lambda: oracle_memory_pairs(
                trace, granularity=base.cache_access_granularity,
                max_distance=base.max_fusion_distance))
            predictive = predictive_pairs_from(pairs)

            row: Dict = {
                "uops": len(trace),
                "trace_build_cold_s": round(build_s, 4),
                "store_save_s": round(save_s, 4),
                "store_load_s": round(load_s, 4),
                "oracle_pairs_s": round(pairs_s, 4),
                "oracle_pairs": len(pairs),
                "predictive_pairs": len(predictive),
                "modes": {},
            }
            totals["trace_build_cold_s"] += build_s
            totals["store_save_s"] += save_s
            totals["store_load_s"] += load_s
            totals["oracle_pairs_s"] += pairs_s

            for mode in modes:
                full = base.with_mode(mode)
                core = PipelineCore(
                    trace, full,
                    oracle_pairs=pairs if mode in (FusionMode.HELIOS,
                                                   FusionMode.ORACLE)
                    else None)
                stats, run_s = _timed(core.run)
                row["modes"][mode.value] = {
                    "run_s": round(run_s, 4),
                    "ipc": round(stats.ipc, 4),
                    "cycles": stats.cycles,
                }
                totals["pipeline_run_s"][mode.value] += run_s
            per_workload[name] = row

            if name == obs_name:
                obs_pairs = (pairs if obs_mode in (FusionMode.HELIOS,
                                                   FusionMode.ORACLE)
                             else None)
                observability = measure_obs_overhead(
                    trace, base.with_mode(obs_mode),
                    oracle_pairs=obs_pairs)
                observability["workload"] = name
                observability["mode"] = obs_mode.value

    capture = totals["trace_build_cold_s"]
    replay_total = totals["store_load_s"]
    throughput = _throughput(per_workload, modes)
    sampled = measure_sampled(quick=quick, config=base) if sample else None
    payload = {
        "schema": 1,
        "generated_by": "repro bench",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv_quick": quick,
        "max_uops": cap,
        "modes": [mode.value for mode in modes],
        "workloads": per_workload,
        "totals": {
            key: (round(value, 4) if isinstance(value, float) else
                  {k: round(v, 4) for k, v in value.items()})
            for key, value in totals.items()
        },
        #: Headline: how much cheaper a warm (replayed) trace is than a
        #: cold (re-interpreted) one — the sweep front-end speedup.
        "capture_vs_replay_speedup": round(
            capture / replay_total, 2) if replay_total > 0 else None,
        #: Simulator throughput: committed trace µ-ops per second of
        #: pipeline run time, per mode and aggregated over the matrix.
        #: This is the number hot-loop PRs move.
        "throughput": throughput,
        #: Instrumentation tax (bare vs default vs traced run); the
        #: observability layer's contract is noop_overhead_pct < 2.
        "observability": observability,
        #: Sampled-vs-full-detail section (``--sample``): speedup and
        #: observed IPC error on iteration-scaled traces; None when the
        #: sampled benchmark was not requested.
        "sampled": sampled,
    }
    return payload


def _throughput(per_workload: Dict[str, Dict], modes) -> Dict:
    """µops/s per mode plus the aggregate over every (workload, mode)."""
    per_mode: Dict[str, Dict[str, float]] = {
        mode.value: {"uops": 0, "run_s": 0.0} for mode in modes}
    for row in per_workload.values():
        for mode_name, cell in row["modes"].items():
            bucket = per_mode[mode_name]
            bucket["uops"] += row["uops"]
            bucket["run_s"] += cell["run_s"]
    total_uops = sum(bucket["uops"] for bucket in per_mode.values())
    total_s = sum(bucket["run_s"] for bucket in per_mode.values())
    return {
        "per_mode_uops_per_s": {
            name: (round(bucket["uops"] / bucket["run_s"])
                   if bucket["run_s"] > 0 else None)
            for name, bucket in per_mode.items()
        },
        "aggregate_uops_per_s": (round(total_uops / total_s)
                                 if total_s > 0 else None),
        "aggregate_uops": total_uops,
        "aggregate_run_s": round(total_s, 4),
    }


def compare_with_previous(payload: Dict, previous: Optional[Dict]) -> Dict:
    """Annotate ``payload`` with the delta against a previous bench file.

    Adds a ``vs_previous`` block: aggregate-µops/s speedup plus a
    cycle-exactness verdict over every (workload, mode) cell present in
    both payloads.  A throughput win that moves any ``cycles`` value is
    a timing change, not an optimization — the block calls that out
    instead of letting the speedup headline stand.

    The previous payload may come from *any* older schema — before the
    ``sampled``, ``observability``, or ``throughput`` sections existed
    (or with any of them ``null``) — so every lookup into it degrades
    to "not comparable" instead of raising.
    """
    if not previous or not isinstance(previous, dict):
        payload["vs_previous"] = None
        return payload
    mismatches: List[str] = []
    compared = 0
    previous_workloads = previous.get("workloads") or {}
    for name, row in (payload.get("workloads") or {}).items():
        old_row = previous_workloads.get(name)
        if old_row is None or old_row.get("uops") != row.get("uops"):
            continue  # different trace budget: cycles not comparable
        for mode_name, cell in (row.get("modes") or {}).items():
            old_cell = (old_row.get("modes") or {}).get(mode_name)
            if old_cell is None:
                continue
            compared += 1
            if old_cell.get("cycles") != cell.get("cycles"):
                mismatches.append("%s/%s: %s -> %s"
                                  % (name, mode_name, old_cell.get("cycles"),
                                     cell.get("cycles")))
    old_aggregate = (previous.get("throughput") or {}).get(
        "aggregate_uops_per_s")
    if old_aggregate is None:
        # Baseline predates the throughput block: reconstruct the
        # aggregate from its per-cell timings.
        old_uops = old_s = 0.0
        for row in previous_workloads.values():
            for cell in (row.get("modes") or {}).values():
                if "run_s" in cell:
                    old_uops += row.get("uops", 0)
                    old_s += cell["run_s"]
        if old_s > 0:
            old_aggregate = round(old_uops / old_s)
    new_aggregate = (payload.get("throughput") or {}).get(
        "aggregate_uops_per_s")
    speedup = (round(new_aggregate / old_aggregate, 3)
               if old_aggregate and new_aggregate else None)
    payload["vs_previous"] = {
        "previous_timestamp": previous.get("timestamp"),
        "previous_aggregate_uops_per_s": old_aggregate,
        "aggregate_speedup": speedup,
        "cells_compared": compared,
        "cycles_identical": not mismatches,
        "cycle_mismatches": mismatches[:20],
        "sampled": _compare_sampled(payload, previous),
    }
    return payload


def _compare_sampled(payload: Dict, previous: Dict) -> Optional[Dict]:
    """Sampled-section delta, or None when this run has no sampled
    section.  A previous payload without one (older schema, or run
    without ``--sample``) compares as ``previous_had_sampled: false``
    with no per-row ratios — never an error."""
    new_rows = (payload.get("sampled") or {}).get("rows") or {}
    if not new_rows:
        return None
    old_rows = (previous.get("sampled") or {}).get("rows") or {}
    ratios = {}
    for name, row in new_rows.items():
        old = old_rows.get(name) or {}
        if row.get("speedup") and old.get("speedup"):
            ratios[name] = round(row["speedup"] / old["speedup"], 3)
    return {
        "previous_had_sampled": bool(old_rows),
        "speedup_ratio": ratios or None,
    }


def load_bench(path: str = BENCH_OUTPUT_DEFAULT) -> Optional[Dict]:
    """Read an existing bench payload; None when absent or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def write_bench(payload: Dict, output: str = BENCH_OUTPUT_DEFAULT) -> str:
    """Write the payload as pretty JSON; returns the path."""
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return output


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.perf.harness``)."""
    from repro.cli import main as cli_main
    return cli_main(["bench"] + list(argv or sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
