"""Pin the program's outputs into ``reference.json``.

Run from the root of a checkout, on an otherwise idle machine (the
per-workload costs it records balance the seed-chosen subsets)::

    python3 reprobench/pin.py

It simulates every catalog workload under all six modes at the default
capture (twice: the second pass must repeat the first exactly and its
time averages the cost), every helios-long candidate at its scaled
length, and renders every figure and table over the full catalog.
Stores go to a temporary directory inside the checkout, never to the
user's cache.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pin() -> dict:
    from check import cell_key, table_rows
    from plan import CENSUS_EXPERIMENTS, HELIOS_LONG, SIM_EXPERIMENTS
    from worker import cell_record, run_cli

    from repro.cli import main
    from repro.config import FusionMode, ProcessorConfig
    from repro.core.simulator import simulate
    from repro.experiments import ResultCache
    from repro.sampling import build_scaled_workload
    from repro.workloads import CATALOG, build_workload, workload_names

    cache = ResultCache()
    catalog, cells = {}, {}
    for name in workload_names():
        start = time.perf_counter()
        trace = build_workload(name)
        capture = time.perf_counter() - start
        costs = []
        for attempt in range(2):
            begin = time.perf_counter()
            for mode in FusionMode:
                config = ProcessorConfig().with_mode(mode)
                result = simulate(trace, config, name=name)
                record = cell_record(result)
                key = cell_key(name, mode.value)
                pinned = {"cycles": record["cycles"],
                          "digest": record["digest"]}
                if attempt == 0:
                    cells[key] = pinned
                    cache.put(name, config, result)
                elif cells[key] != pinned:
                    raise SystemExit("%s is not deterministic" % key)
            costs.append(time.perf_counter() - begin)
        catalog[name] = {"family": CATALOG[name].builder.__name__,
                         "uops": len(trace),
                         "cost_s": round(capture + sum(costs) / 2, 3)}
        print("%-16s %s" % (name, catalog[name]), flush=True)

    for name, target in HELIOS_LONG:
        trace = build_scaled_workload(name, target)
        record = cell_record(simulate(
            trace, ProcessorConfig().with_mode(FusionMode.HELIOS),
            name=name))
        cells[cell_key(name, "Helios", target)] = {
            "cycles": record["cycles"], "digest": record["digest"]}
        print("%s@%d pinned" % (name, target), flush=True)

    census_text, sim_rows = {}, {}
    for experiment in CENSUS_EXPERIMENTS + SIM_EXPERIMENTS:
        outcome = run_cli(main, ["experiment", experiment, "--jobs", "1"])
        if outcome["rc"] != 0:
            raise SystemExit("experiment %s failed: %s"
                             % (experiment, outcome["error"]))
        if experiment in CENSUS_EXPERIMENTS:
            census_text[experiment] = outcome["stdout"]
        else:
            rows = table_rows(outcome["stdout"])
            sim_rows[experiment] = {name: rows[name] for name in catalog}
    return {"catalog": catalog, "cells": cells, "census_text": census_text,
            "sim_rows": sim_rows}


def main() -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    scratch = tempfile.mkdtemp(prefix="pin-", dir=ROOT)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    os.environ["REPRO_TRACE_DIR"] = os.path.join(scratch, "traces")
    path = os.path.join(HERE, "reference.json")
    try:
        reference = pin()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
