"""Tests for the command-line interface."""

import argparse
import json
import os
import sys
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main
from repro.config import FusionMode
from repro.workloads import workload_names


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "657.xz_1" in out
    assert "MiBench" in out


def _help_argvs():
    """Every subcommand, plus each action of ``cache`` and ``trace``."""
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return ([[name] for name in sorted(commands)]
            + [["cache", action] for action in ("info", "clear")]
            + [["trace", action] for action in ("info", "clear", "export")])


@pytest.mark.parametrize("argv", _help_argvs(), ids="-".join)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: repro " + argv[0])


def test_simulate_all_modes(capsys):
    assert main(["simulate", "bitcount"]) == 0
    out = capsys.readouterr().out
    assert "NoFusion" in out
    assert "Helios" in out
    assert "vs base" in out


def test_simulate_single_mode(capsys):
    assert main(["simulate", "bitcount", "--mode", "Helios"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "coverage" in out


def test_simulate_with_fp_kind(capsys):
    assert main(["simulate", "bitcount", "--mode", "Helios",
                 "--fp-kind", "tage"]) == 0
    assert "IPC" in capsys.readouterr().out


def test_simulate_unknown_workload():
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["simulate", "not-a-workload"])


def test_simulate_unknown_mode():
    with pytest.raises(SystemExit, match="unknown mode"):
        main(["simulate", "bitcount", "--mode", "Banana"])


def test_experiment_table2(capsys):
    assert main(["experiment", "table2"]) == 0
    assert "Table II" in capsys.readouterr().out


def test_experiment_with_subset(capsys):
    assert main(["experiment", "fig2", "--workloads", "bitcount"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "bitcount" in out


def test_experiment_unknown():
    with pytest.raises(SystemExit, match="unknown experiment"):
        main(["experiment", "fig99"])


def test_experiment_unknown_workload():
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["experiment", "fig2", "--workloads", "nope"])


def test_workload_lists_accept_all(monkeypatch, capsys):
    seen = []

    def fake_analyze(name, **_kwargs):
        seen.append(name)
        return SimpleNamespace(render=lambda: name, to_dict=dict, ok=True)

    monkeypatch.setattr("repro.analysis.analyze_workload", fake_analyze)
    assert main(["analyze", "all"]) == 0
    assert seen == workload_names()


def test_simulate_fp_kind_requires_helios_mode():
    with pytest.raises(SystemExit, match="no effect with --mode NoFusion"):
        main(["simulate", "bitcount", "--mode", "NoFusion",
              "--fp-kind", "tage"])


def test_experiment_fp_kind_threads_config(capsys, tmp_path):
    assert main(["experiment", "table3", "--workloads", "bitcount",
                 "--fp-kind", "tage", "--cache-dir", str(tmp_path)]) == 0
    assert "Table III" in capsys.readouterr().out


def test_experiment_fp_kind_inapplicable():
    # fig2 is a census: it never simulates Helios, so --fp-kind would
    # be silently ignored — error out instead.
    with pytest.raises(SystemExit, match="never simulates"):
        main(["experiment", "fig2", "--workloads", "bitcount",
              "--fp-kind", "tage"])
    with pytest.raises(SystemExit, match="table2"):
        main(["experiment", "table2", "--fp-kind", "tage"])


def test_experiment_parallel_jobs_with_cache(capsys, tmp_path):
    argv = ["experiment", "fig3", "--workloads", "bitcount",
            "--jobs", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "Figure 3" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*.json"))) == 3  # one per mode
    # Re-run served from the persistent cache.
    assert main(argv) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_cache_subcommand_info_and_clear(capsys, tmp_path):
    assert main(["experiment", "fig3", "--workloads", "bitcount",
                 "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries: 3" in out
    assert "bitcount" in out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 3" in capsys.readouterr().out
    assert list(tmp_path.glob("*.json")) == []


def test_trace_subcommand_info_and_clear(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    from repro.workloads import build_workload, clear_trace_memo
    clear_trace_memo()
    build_workload("bitcount", max_uops=2000)
    clear_trace_memo()
    assert main(["trace", "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries: 1" in out
    assert "bitcount" in out
    assert main(["trace", "clear", "--trace-dir", str(tmp_path)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert list(tmp_path.glob("*.trc")) == []


def test_trace_export(capsys, tmp_path):
    out_path = tmp_path / "bitcount.jsonl"
    assert main(["trace", "export", "bitcount",
                 "--out", str(out_path)]) == 0
    assert "portable JSON-lines" in capsys.readouterr().out
    from repro.isa import load_trace
    trace = load_trace(str(out_path))
    assert trace.name == "bitcount"
    assert len(trace) > 0


def test_trace_export_requires_workload():
    with pytest.raises(SystemExit, match="needs a workload"):
        main(["trace", "export"])
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["trace", "export", "nope"])


def test_storage_report(capsys):
    assert main(["storage"]) == 0
    out = capsys.readouterr().out
    assert "fusion_predictor" in out
    assert "grand total" in out


def test_simulate_sampled_tiny_trace_reports_exact(capsys):
    # Natural dijkstra is too short for the default 32-strata plan:
    # the sampler must fall back to full detail and say so.
    assert main(["simulate", "dijkstra", "--sample"]) == 0
    out = capsys.readouterr().out
    assert "sampled estimate" in out
    assert "full detail (exact" in out


def test_simulate_sampled_explicit_windows(capsys):
    assert main(["simulate", "dijkstra", "--sample", "6",
                 "--mode", "Helios"]) == 0
    out = capsys.readouterr().out
    assert "sampled estimate: dijkstra, Helios" in out
    assert "95% CI" in out


# ---- fault tolerance surface -------------------------------------------------

def test_experiment_writes_report_json(capsys, tmp_path):
    report_file = tmp_path / "sweep.json"
    assert main(["experiment", "cpi", "--workloads", "crc32",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--report-json", str(report_file)]) == 0
    out = capsys.readouterr().out
    assert "wrote sweep execution report to" in out
    payload = json.loads(report_file.read_text())
    assert payload["summary"]["jobs"] == 2      # NoFusion + Helios
    assert payload["summary"]["failed"] == 0


def test_report_json_is_this_commands_report(tmp_path):
    # Regression: --report-json used to write whatever report an
    # earlier sweep in the same process left behind.  A command whose
    # cells are all cache hits ran no job and writes no report.
    cache = str(tmp_path / "cache")
    report_file = tmp_path / "sweep.json"
    for argv in (["fig3", "--workloads", "dijkstra"],
                 ["fig8", "--workloads", "bitcount"],
                 ["fig3", "--workloads", "dijkstra",
                  "--report-json", str(report_file)]):
        assert main(["experiment", *argv, "--cache-dir", cache]) == 0
    assert not report_file.exists()
    # A command that did simulate writes only its own jobs.
    assert main(["experiment", "fig3", "--workloads", "dijkstra",
                 "--cache-dir", str(tmp_path / "fresh"),
                 "--report-json", str(report_file)]) == 0
    payload = json.loads(report_file.read_text())
    assert sorted((job["workload"], job["mode"])
                  for job in payload["jobs"]) == [
        ("dijkstra", "CSF-SBR"), ("dijkstra", "NoFusion"),
        ("dijkstra", "RISCVFusion++")]


def test_failed_sweep_writes_its_report(capsys, tmp_path, monkeypatch):
    import repro.experiments.engine as engine_mod

    real = engine_mod._execute_job

    def failing_helios(job):
        if job[1].fusion_mode is FusionMode.HELIOS:
            raise RuntimeError("injected Helios failure")
        return real(job)

    monkeypatch.setattr(engine_mod, "_execute_job", failing_helios)
    report_file = tmp_path / "sweep.json"
    assert main(["experiment", "cpi", "--workloads", "crc32",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--report-json", str(report_file)]) == 1
    assert "sweep failed" in capsys.readouterr().err
    payload = json.loads(report_file.read_text())
    assert payload["summary"]["jobs"] == 2
    assert payload["summary"]["failed"] == 1


def test_pool_failure_reruns_in_the_supervisor(capsys, tmp_path,
                                               monkeypatch):
    # A Helios job that raises only in pool workers completes in its
    # one serial attempt, and the report shows the trail.
    import multiprocessing

    import repro.experiments.engine as engine_mod

    real = engine_mod._execute_job

    def helios_fails_in_pool(job):
        if job[1].fusion_mode is FusionMode.HELIOS \
                and multiprocessing.parent_process() is not None:
            raise RuntimeError("injected Helios pool failure")
        return real(job)

    monkeypatch.setattr(engine_mod, "_execute_job", helios_fails_in_pool)
    report_file = tmp_path / "sweep.json"
    assert main(["experiment", "cpi", "--workloads", "crc32",
                 "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                 "--report-json", str(report_file)]) == 0
    assert "Helios" in capsys.readouterr().out
    payload = json.loads(report_file.read_text())
    trails = {job["mode"]: [(a["where"], a["outcome"])
                            for a in job["attempts"]]
              for job in payload["jobs"]}
    assert trails == {"NoFusion": [("pool", "ok")],
                      "Helios": [("pool", "raise"), ("serial", "ok")]}
    assert payload["summary"]["degraded_to_serial"] == 1
    assert payload["summary"]["failed"] == 0


def test_experiments_simulate_each_cell_once(tmp_path, monkeypatch):
    # The one-path contract: a cold fig10 calls the job function once
    # per (workload, mode); a later fig3 over the same workloads is
    # served entirely from the stores.
    from repro.core import simulator

    real = simulator.simulate
    calls = []

    def counting(trace, config=None, name=None, **kwargs):
        calls.append((name, config.fusion_mode))
        return real(trace, config, name=name, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    cache = str(tmp_path / "cache")
    workloads = ["bitcount", "crc32"]
    assert main(["experiment", "fig10", "--workloads", ",".join(workloads),
                 "--jobs", "1", "--cache-dir", cache]) == 0
    assert sorted(calls, key=str) == sorted(
        ((name, mode) for name in workloads for mode in FusionMode),
        key=str)
    calls.clear()
    assert main(["experiment", "fig3", "--workloads", ",".join(workloads),
                 "--jobs", "1", "--cache-dir", cache]) == 0
    assert calls == []


def test_cache_info_counts_orphans_and_quarantine(capsys, tmp_path):
    (tmp_path / "in-flight.tmp").write_text("x")
    (tmp_path / "bad.json.corrupt").write_text("y")
    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "orphaned tmp files: 1" in out
    assert "quarantined corrupt entries: 1" in out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 2" in capsys.readouterr().out


def test_trace_info_counts_orphans_and_quarantine(capsys, tmp_path):
    (tmp_path / "in-flight.tmp").write_bytes(b"x")
    (tmp_path / "bad.trc.corrupt").write_bytes(b"y")
    assert main(["trace", "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "orphaned tmp files: 1" in out
    assert "quarantined corrupt entries: 1" in out


def test_simulate_sample_needs_two_strata():
    with pytest.raises(SystemExit, match="at least 2 strata"):
        main(["simulate", "dijkstra", "--sample", "1"])


@pytest.mark.parametrize("argv,message", [
    (["--sample", "--mode", "NoFusion", "--fp-kind", "tage"],
     "no effect with --mode NoFusion"),
    (["--scale-to", "-5"], "--scale-to: must be at least 1"),
], ids=["fp-kind-sampled-nofusion", "negative-scale-to"])
def test_simulate_rejects_ignored_or_invalid_flags(capsys, argv, message):
    # Each of these used to be silently ignored or end in a traceback.
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "crc32"] + argv)
    assert message in "%s %s" % (excinfo.value.code,
                                 capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["simulate", "crc32"], ["profile", "crc32"],
    ["debug", "crc32"], ["analyze", "crc32"], ["static", "crc32"],
], ids=lambda argv: argv[0])
def test_max_uops_must_be_positive(capsys, argv):
    # 0 used to fall through to the default-length trace.
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["--max-uops", "0"])
    assert "--max-uops: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["static", "crc32", "--path-budget", "0"],
     "--path-budget: must be at least 1"),
    (["static", "crc32", "--path-budget", "-1"],
     "--path-budget: must be at least 1"),
    (["experiment", "cpi", "--job-timeout", "nan"],
     "--job-timeout: must be positive, finite seconds"),
    (["experiment", "cpi", "--job-timeout", "-1"],
     "--job-timeout: must be positive, finite seconds"),
    (["debug", "crc32", "--ring", "-5"], "--ring: must be at least 1"),
    (["debug", "crc32", "--ring", "0"], "--ring: must be at least 1"),
    (["profile", "crc32", "--top", "-3"], "--top: must be at least 1"),
], ids=["path-budget-0", "path-budget-negative", "job-timeout-nan",
        "job-timeout-negative", "ring-negative", "ring-0",
        "top-negative"])
def test_numeric_flags_reject_values_that_disable_them(capsys, argv,
                                                       message):
    # Each of these used to pass vacuously, silently disable what the
    # flag sets, or end in a traceback.
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert message in capsys.readouterr().err


def test_simulate_has_no_segment_flags(capsys):
    for flag in ("--segments", "--jobs", "--job-timeout", "--retries"):
        with pytest.raises(SystemExit):
            main(["simulate", "dijkstra", flag, "2"])
        assert "unrecognized arguments: %s" % flag \
            in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "-2"])
def test_experiment_negative_jobs_is_usage_error(capsys, value):
    with pytest.raises(SystemExit):
        main(["experiment", "fig3", "--workloads", "crc32",
              "--jobs", value])
    assert "cannot be negative" in capsys.readouterr().err


def test_jobs_flag_follows_the_repro_jobs_rule():
    # $REPRO_JOBS=0 already meant one worker per CPU; --jobs 0 ran serially.
    from repro.experiments import SweepEngine
    auto = os.cpu_count() or 1
    args = build_parser().parse_args(["experiment", "fig3", "--jobs", "0"])
    assert args.jobs == auto
    assert SweepEngine(jobs=0).jobs == auto
    with pytest.raises(ValueError, match="cannot be negative"):
        SweepEngine(jobs=-1)


def test_simulate_max_uops_caps_trace(capsys):
    assert main(["simulate", "bitcount", "--mode", "NoFusion",
                 "--max-uops", "5000"]) == 0
    out = capsys.readouterr().out
    assert "5000 instructions" in out or "IPC" in out


def test_static_contract_table(capsys):
    assert main(["static", "dijkstra", "--max-uops", "20000"]) == 0
    out = capsys.readouterr().out
    assert "dijkstra" in out
    assert "contract: ok" in out


def test_static_oracle_only_mode(capsys):
    assert main(["static", "bitcount", "--mode", "oracle",
                 "--max-uops", "10000"]) == 0
    out = capsys.readouterr().out
    assert "contract: ok" in out
    # No Helios pipeline run: the committed column shows a dash.
    row = next(line for line in out.splitlines()
               if line.startswith("bitcount"))
    assert " - " in row


def test_static_verbose_and_explain(capsys):
    assert main(["static", "dijkstra", "--max-uops", "10000",
                 "--verbose", "--explain", "0x10008,0x1000c"]) == 0
    out = capsys.readouterr().out
    assert "static candidates:" in out
    assert "0x10008" in out


def test_static_json_report(capsys, tmp_path):
    report_file = tmp_path / "static.json"
    assert main(["static", "bitcount,dijkstra", "--max-uops", "10000",
                 "--candidates", "--json", str(report_file)]) == 0
    payload = json.loads(report_file.read_text())
    assert isinstance(payload, list) and len(payload) == 2
    by_name = {entry["workload"]: entry for entry in payload}
    assert by_name["dijkstra"]["ok"]
    assert "candidates" in by_name["dijkstra"]["static"]


def test_static_unknown_workload():
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["static", "not-a-workload"])


def test_static_unknown_mode():
    with pytest.raises(SystemExit, match="unknown mode"):
        main(["static", "bitcount", "--mode", "banana"])
