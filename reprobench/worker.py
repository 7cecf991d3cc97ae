"""One benchmark child process: an import probe, a set-up, or a timed run.

Usage (from the checkout root; ``run.py`` drives it)::

    python3 reprobench/worker.py probe|setup|timed|traced SPEC.json OUT.json

Every phase records when it became ready to time (``import repro.cli``
done) on the system-wide monotonic clock, so the parent can measure
process start to ready.  ``setup`` runs the plan's set-up steps and
exits, leaving its state only on disk.  ``timed`` runs the plan's
commands through ``repro.cli.main`` one after another and reports
their wall time, the peak resident set, each command's output and the
simulation results the commands produced; ``traced`` does the same
with spans recorded around the calls into each layer.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from check import stats_digest  # noqa: E402


def cell_record(result) -> dict:
    """The plain-data view of one ``SimResult`` the parent checks."""
    stats = result.stats
    return {
        "workload": result.workload, "mode": result.mode.value,
        "cycles": result.cycles, "instructions": result.instructions,
        "ipc": result.ipc, "digest": stats_digest(stats.to_dict()),
        "cpi_buckets": dict(result.cpi_buckets),
        "commit_width": result.commit_width,
        "csf_pairs": stats.csf_memory_pairs,
        "ncsf_pairs": stats.ncsf_memory_pairs,
        "fp_covered": stats.fp_covered_pairs,
        "fp_eligible": result.eligible_predictive_pairs,
        "fp_correct": stats.fp_fusions_correct,
        "fp_mispredicted": stats.fp_address_mispredictions,
    }


def _tap_results(sink: list) -> None:
    """Keep every ``SimResult`` that ``simulate`` returns, wherever it
    is looked up.  One list append per simulated cell."""
    import functools

    import repro.core.simulator as simulator
    from spans import replace_everywhere

    original = simulator.simulate

    @functools.wraps(original)
    def simulate(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    replace_everywhere(original, simulate)


def run_cli(main, argv: list) -> dict:
    out = io.StringIO()
    outcome = {"argv": argv, "rc": 0, "error": None}
    with contextlib.redirect_stdout(out):
        try:
            outcome["rc"] = main(argv)
        except SystemExit as exc:
            outcome["rc"] = exc.code if isinstance(exc.code, int) else 1
            outcome["error"] = None if exc.code in (0, None) else str(exc)
        except Exception:  # noqa: BLE001 - a failed operation is counted
            outcome["rc"] = 1
            outcome["error"] = traceback.format_exc()
    outcome["stdout"] = out.getvalue()
    return outcome


def _setup(spec: dict, main) -> None:
    for step in spec["setup"]:
        kind, args = step[0], step[1:]
        if kind == "cli":
            outcome = run_cli(main, args)
            if outcome["rc"] != 0:
                raise SystemExit("set-up step %s failed: %s"
                                 % (args, outcome["error"]))
        elif kind == "capture":
            from repro.workloads import build_workload
            build_workload(args[0])
        elif kind == "scaled":
            from repro.sampling import build_scaled_workload
            build_scaled_workload(args[0], int(args[1]))
        else:
            raise SystemExit("unknown set-up step %r" % kind)


def _timed(spec: dict, main, traced: bool) -> dict:
    results: list = []
    _tap_results(results)
    recorder = None
    if traced:
        from layers import install
        from spans import Recorder
        recorder = Recorder()
        install(recorder)
    commands = [[arg.replace("{tmp}", spec["tmp"]) for arg in argv]
                for argv in spec["commands"]]
    outcomes = []
    start = time.perf_counter()
    for argv in commands:
        if recorder is not None:
            span = recorder.begin("command", new_op=True)
            outcomes.append(run_cli(main, argv))
            recorder.end(span)
        else:
            outcomes.append(run_cli(main, argv))
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes,
        "cells": [cell_record(r) for r in results],
        "spans": ([s.to_dict() for s in recorder.spans]
                  if recorder is not None else []),
        "absent": recorder.absent if recorder is not None else [],
    }


def main(argv: list) -> int:
    phase, spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    before_import = time.perf_counter()
    from repro.cli import main as cli_main
    # The one layer module the CLI imports lazily is loaded before timing
    # in every phase, so wrapping sees all its bindings and the untraced
    # and traced runs time the same work.
    import repro.analysis.differential  # noqa: F401
    import_s = time.perf_counter() - before_import
    report = {"ready": time.monotonic(), "import_s": import_s}
    if phase == "setup":
        _setup(spec, cli_main)
    elif phase in ("timed", "traced"):
        report.update(_timed(spec, cli_main, traced=phase == "traced"))
    elif phase != "probe":
        raise SystemExit("unknown phase %r" % phase)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
