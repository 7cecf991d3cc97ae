"""Benchmark entry point: times one workload of the ``repro`` CLI end to end.

Run from the root of a checkout::

    python3 reprobench/run.py --workload repro-cold --seed 1 \\
        --seconds 20 --trace 0

This script never imports ``repro``; it starts fresh child processes
(``worker.py``) with empty store directories under ``.reprobench_tmp``
in the checkout.  Set-up steps run in their own process, so their
in-process memos never reach the timed process.  Each timed iteration
is a fresh process running the workload's commands one after another
with ``--jobs 1``; iterations repeat while another one fits in
``--seconds`` (at least one) and the metrics are their medians.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_cell, check_experiment  # noqa: E402
from layers import (  # noqa: E402
    layer_metrics, model_metrics, per_layer_units)
from plan import EVENTS_FILE, MODES, WORKLOADS, make_plan  # noqa: E402
from spans import Span  # noqa: E402

#: Process start to ready is sampled at least this often per run.
READY_SAMPLES = 9
#: Set-up is repeated (into fresh stores) up to this many times while
#: the repeats fit in the budget; setup_s takes the median.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 5.0
#: The whole run must end well inside 180 s.
DEADLINE_S = 170.0
#: The paper's Figure 10 geomean uplifts and Table III averages, as
#: quoted in EXPERIMENTS.md.
PAPER_UPLIFT_PCT = {"RISCVFusion": 0.8, "CSF-SBR": 6.0,
                    "RISCVFusion++": 7.0, "Helios": 14.2,
                    "OracleFusion": 16.3}
PAPER_FP_COVERAGE_PCT = 68.2
PAPER_FP_ACCURACY_PCT = 99.7


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a failed operation)."""


class Runner:
    """Spawns the child processes of one benchmark run."""

    def __init__(self, root: str, plan: dict, started: float):
        self.root = root
        self.plan = plan
        self.deadline = started + DEADLINE_S
        self.work = os.path.join(root, ".reprobench_tmp",
                                 "run-%d" % os.getpid())
        self.stores = None
        self._serial = 0

    def fresh_stores(self) -> float:
        """Empty result-cache and trace-store directories; returns the
        seconds that took."""
        start = time.monotonic()
        self._serial += 1
        self.stores = os.path.join(self.work, "stores-%d" % self._serial)
        for sub in ("cache", "traces", "tmp", "xdg"):
            os.makedirs(os.path.join(self.stores, sub))
        return time.monotonic() - start

    def env(self) -> dict:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update({
            "REPRO_CACHE_DIR": os.path.join(self.stores, "cache"),
            "REPRO_TRACE_DIR": os.path.join(self.stores, "traces"),
            "XDG_CACHE_HOME": os.path.join(self.stores, "xdg"),
            "TMPDIR": os.path.join(self.stores, "tmp"),
            "PYTHONPATH": os.path.join(self.root, "src"),
            "PYTHONHASHSEED": "0",
        })
        return env

    def spawn(self, phase: str) -> tuple[float, dict]:
        """Run one worker; returns (its wall seconds, its report)."""
        self._serial += 1
        spec = dict(self.plan, tmp=os.path.join(self.stores, "tmp"))
        spec_path = os.path.join(self.work, "spec-%d.json" % self._serial)
        out_path = os.path.join(self.work, "out-%d.json" % self._serial)
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the %s phase" % phase)
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), phase,
                 spec_path, out_path],
                cwd=self.root, env=self.env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("%s phase overran the deadline" % phase) \
                from exc
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            raise BenchError("%s phase exited %d:\n%s"
                             % (phase, proc.returncode, proc.stderr[-4000:]))
        with open(out_path, encoding="utf-8") as handle:
            report = json.load(handle)
        report["ready_s"] = report["ready"] - start
        return elapsed, report

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run still uses it


def check_iteration(plan: dict, report: dict, reference: dict,
                    stores_tmp: str) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) of one timed iteration."""
    attempted, failures = 0, []
    scale_to = plan.get("scale_to")
    for cell in report["cells"]:
        attempted += 1
        problem = check_cell(cell, reference, scale_to)
        if problem:
            failures.append(problem)
    expected = expected_cells(plan)
    got = sorted((c["workload"], c["mode"]) for c in report["cells"])
    if got != expected:
        attempted += 1
        failures.append("simulated cells %s, expected %s" % (got, expected))
    for outcome in report["outcomes"]:
        argv = outcome["argv"]
        problem = None
        if outcome["rc"] != 0:
            problem = "%s exited %s: %s" % (" ".join(argv), outcome["rc"],
                                            outcome["error"])
        elif argv[0] != "simulate":  # a simulate's op is its cell
            problem = check_command(plan, outcome, reference, stores_tmp)
        if argv[0] != "simulate" or problem:
            attempted += 1
        if problem:
            failures.append(problem)
    return attempted, failures


def expected_cells(plan: dict) -> list[tuple[str, str]]:
    if plan["workload"] == "repro-cold":
        return sorted((w, m) for w in plan["subset"] for m in MODES)
    if plan["workload"] in ("helios-long", "diagnose"):
        return [(plan["subset"][0], "Helios")]
    return []


def check_command(plan: dict, outcome: dict, reference: dict,
                  stores_tmp: str) -> str | None:
    argv, text = outcome["argv"], outcome["stdout"]
    if argv[0] == "experiment":
        return check_experiment(argv[1], text, plan["subset"], reference)
    if argv[0] == "analyze":
        if "no divergences" not in text:
            return "analyze %s reported a divergence" % argv[1]
        return None
    if argv[0] == "debug":
        path = EVENTS_FILE.replace("{tmp}", stores_tmp)
        try:
            with open(path, encoding="utf-8") as handle:
                events = json.load(handle).get("traceEvents")
        except (OSError, ValueError) as exc:
            return "debug events file unreadable: %s" % exc
        if not events:
            return "debug wrote no trace events"
        return None
    return "no check for %s" % argv[0]


def pipeline_uops(plan: dict, cells: list[dict], catalog: dict) -> int:
    """Trace µ-ops of every pipeline run in the timed commands: each
    simulated cell plus the one sanitized run of each ``analyze``."""
    analyzed = sum(catalog[argv[1]]["uops"] for argv in plan["commands"]
                   if argv[0] == "analyze")
    return sum(c["instructions"] for c in cells) + analyzed


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def paper_lines(plan: dict, cells: list[dict]) -> list[str]:
    """The model's speed-ups beside the paper's (informational)."""
    label = ("gap to the paper's own simulator and inputs; "
             "informational, no bound")
    lines = []
    if plan["workload"] == "repro-cold":
        ipc = {(c["workload"], c["mode"]): c["ipc"] for c in cells}
        for mode, paper in PAPER_UPLIFT_PCT.items():
            ratios = [ipc[(w, mode)] / ipc[(w, "NoFusion")]
                      for w in plan["subset"]
                      if (w, mode) in ipc and (w, "NoFusion") in ipc]
            if len(ratios) < len(plan["subset"]):
                continue  # a failed cell; counted as a failed operation
            model = 100.0 * (geomean(ratios) - 1.0)
            lines.append("paper fig10 geomean IPC uplift %-13s model "
                         "%+6.2f %%  paper %+5.1f %%  gap %+6.2f pp  (%s)"
                         % (mode, model, paper, model - paper, label))
    elif plan["workload"] == "helios-long" and cells:
        cell = cells[0]
        coverage = (100.0 * cell["fp_covered"] / cell["fp_eligible"]
                    if cell["fp_eligible"] else 0.0)
        resolved = cell["fp_correct"] + cell["fp_mispredicted"]
        accuracy = (100.0 * cell["fp_correct"] / resolved
                    if resolved else 0.0)
        for what, model, paper in (
                ("coverage", coverage, PAPER_FP_COVERAGE_PCT),
                ("accuracy", accuracy, PAPER_FP_ACCURACY_PCT)):
            lines.append("paper Helios FP %s %s model %.2f %%  paper "
                         "%.1f %%  gap %+.2f pp  (%s)"
                         % (what, cell["workload"], model, paper,
                            model - paper, label))
    return lines


def run(args, root: str, reference: dict) -> tuple[dict, list[str], int,
                                                   list[str]]:
    """Returns (metrics, report lines, attempted, failures)."""
    started = time.monotonic()
    plan = make_plan(args.workload, args.seed, reference["catalog"])
    runner = Runner(root, plan, started)
    lines = ["workload %s seed %d: %s" % (args.workload, args.seed,
                                          ", ".join(plan["subset"]))]
    ready, plain, traced = [], [], []
    attempted, failures = 0, []
    try:
        prep = []
        while True:
            prep.append(runner.fresh_stores())
            if plan["setup"]:
                prep[-1] += runner.spawn("setup")[0]
            if (len(prep) == SETUP_SAMPLES
                    or sum(prep) + prep[-1] > SETUP_BUDGET_S):
                break
        prep_s = statistics.median(prep)
        phases = ("timed", "traced") if args.trace else ("timed",)
        measured = 0.0
        while True:
            for phase in phases:
                if plan["workload"] == "repro-cold" and (plain or traced):
                    runner.fresh_stores()  # every cold run starts empty
                _, report = runner.spawn(phase)
                ready.append(report["ready_s"])
                (traced if phase == "traced" else plain).append(report)
                measured += report["wall_s"]
                done, problems = check_iteration(
                    plan, report, reference,
                    os.path.join(runner.stores, "tmp"))
                attempted += done
                failures += problems
            last = sum(r["wall_s"] for r in (plain[-1:] + traced[-1:]))
            if (measured + last > args.seconds
                    or time.monotonic() + 2 * last > runner.deadline):
                break
        while len(ready) < READY_SAMPLES:
            ready.append(runner.spawn("probe")[1]["ready_s"])
    finally:
        runner.cleanup()

    wall = statistics.median(r["wall_s"] for r in plain)
    cells = plain[-1]["cells"]
    lines.append("iterations %d untraced, %d traced; set-up preparation "
                 "(median of %d) %.3f s, process start to ready (median "
                 "of %d) %.3f s"
                 % (len(plain), len(traced), len(prep), prep_s, len(ready),
                    statistics.median(ready)))
    lines.append("wall_s per untraced iteration: %s" % ", ".join(
        "%.3f" % r["wall_s"] for r in plain))
    uops = pipeline_uops(plan, cells, reference["catalog"])
    if uops:
        lines.append("sim_uops_per_s %.1f uops/s  (%d trace µ-ops "
                     "simulated in wall_s)" % (uops / wall, uops))
    lines.extend(paper_lines(plan, cells))
    if not args.trace:
        metrics = {
            "setup_s": (prep_s + statistics.median(ready), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (statistics.median(
                r["peak_rss_mb"] for r in plain), "MB"),
        }
    else:
        metrics = traced_metrics(plain, traced, lines)
    return metrics, lines, attempted, failures


def traced_metrics(plain: list[dict], traced: list[dict],
                   lines: list[str]) -> dict:
    """Per-layer metrics: medians over the traced iterations."""
    per_iteration = []
    for report in traced:
        spans = [Span.from_dict(s) for s in report["spans"]]
        values = layer_metrics(spans, report["import_s"])
        values.update(model_metrics(report["cells"]))
        per_iteration.append(values)
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    lines.append("tracing overhead %.3f s (traced wall_s minus untraced "
                 "wall_s)" % overhead)
    absent = sorted(set(a for r in traced for a in r["absent"]))
    if absent:
        lines.append("absent timed callables (their metrics read 0): "
                     + ", ".join(absent))
    metrics = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead_s":
            metrics[name] = (overhead, unit)
        else:
            metrics[name] = (statistics.median(
                values[name] for values in per_iteration), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    ref_path = os.path.join(HERE, "reference.json")
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("reprobench: %s holds no repro checkout (src/repro/cli.py)"
              % root, file=sys.stderr)
        return 2
    with open(ref_path, encoding="utf-8") as handle:
        reference = json.load(handle)
    # Bytecode is compiled once per checkout, before anything is timed:
    # users do not pay that cost on every run.
    for path in (os.path.join(root, "src"), HERE):
        compileall.compile_dir(path, quiet=1)
    try:
        metrics, lines, attempted, failures = run(args, root, reference)
    except BenchError as exc:
        print("reprobench: %s" % exc, file=sys.stderr)
        return 3
    for name, (value, unit) in metrics.items():
        lines.append("%-40s %16.6f %s" % (name, value, unit))
    lines.append("failed_ops_ratio %.6f  (%d failed of %d operations)"
                 % (len(failures) / attempted, len(failures), attempted))
    for problem in failures:
        lines.append("FAILED: %s" % problem)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
