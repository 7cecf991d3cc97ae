"""Command-line interface.

::

    python -m repro workloads                 # list the catalog
    python -m repro simulate dijkstra         # all six configurations
    python -m repro simulate 657.xz_1 --mode Helios --fp-kind tage
    python -m repro simulate 605.mcf --scale-to 500000 --sample  # IPC ± CI
    python -m repro experiment fig10 --workloads 657.xz_1,605.mcf --jobs 4
    python -m repro experiment fig9 --jobs 8 \\
        --report-json sweep.json              # fault-tolerant sweep
    python -m repro cache                     # inspect the result cache
    python -m repro cache clear               # drop every cached result
    python -m repro trace                     # inspect the trace store
    python -m repro trace export dijkstra     # trace -> portable JSON-lines
    python -m repro profile 605.mcf --mode Helios --top 20
    python -m repro debug 657.xz_1 --events-out xz.trace.json
    python -m repro analyze dijkstra          # legality + differential
    python -m repro analyze 657.xz_1 --mode Helios --explain 0x1a4
    python -m repro static all --json static-report.json
    python -m repro static dijkstra --explain 0x10008,0x1000c
    python -m repro storage                   # Table II budget

Each ``experiment`` command builds one
:class:`~repro.experiments.engine.SweepEngine` from its flags
(``--jobs``, ``--cache-dir``, ``--no-cache``) and hands it to the
figure or table, which takes its cells from one sweep;
``--report-json`` writes that sweep's report.  ``cache`` and ``trace``
list or clear their store through one printer.
``simulate`` runs one trace in-process: serial full detail (exact) or
``--sample`` (estimated, with a confidence interval).  No subcommand
times the program: ``reprobench/run.py`` does, end to end and per
layer, and ``tools/check_perf.py`` holds the CI perf gates.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.analysis.static.candidates import DEFAULT_PATH_BUDGET
from repro.config import DEFAULT_MAX_UOPS, FusionMode, ProcessorConfig
from repro.core.simulator import ipc_uplift, simulate, simulate_modes
from repro.core.storage import helios_storage_budget
from repro.experiments import (
    SWEEP_MODES, ResultCache, SweepEngine, SweepJobError, SweepReport,
    cpi_accounting, figure2, figure3, figure4, figure5, figure8, figure9,
    figure10, legality_census, table1, table2, table3,
)
from repro.experiments.engine import parse_jobs
from repro.sampling import DEFAULT_WINDOWS as _SAMPLE_DEFAULT_WINDOWS
from repro.workloads import (
    CATALOG, TraceStore, build_workload, ensure_known, workload_names,
)

_EXPERIMENTS = {
    "fig2": figure2, "fig3": figure3, "fig4": figure4, "fig5": figure5,
    "fig8": figure8, "fig9": figure9, "fig10": figure10,
    "table1": table1, "table3": table3, "cpi": cpi_accounting,
    "legality": legality_census,
}

_MODES = {mode.value.lower(): mode for mode in FusionMode}


def _parse_mode(text: str) -> FusionMode:
    try:
        return _MODES[text.lower()]
    except KeyError:
        raise SystemExit("unknown mode %r; choose from: %s"
                         % (text, ", ".join(m.value for m in FusionMode))) from None


def _positive(text: str) -> int:
    """argparse ``type=`` for a count flag: a value below 1 is a usage
    error, not a traceback, a silent default or a vacuous pass."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid integer %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be at least 1, got %d" % value)
    return value


def _jobs_arg(text: str) -> int:
    """``--jobs`` under the rule ``$REPRO_JOBS`` follows (0 = auto)."""
    try:
        return parse_jobs(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _workload_list(arg: Optional[str]) -> Optional[List[str]]:
    """Comma-separated catalog names, or ``all`` for the whole catalog."""
    if not arg:
        return None
    if arg.strip().lower() == "all":
        return workload_names()
    names = [n.strip() for n in arg.split(",") if n.strip()]
    try:
        return ensure_known(names)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_workloads(_args) -> int:
    print("%-17s %-8s %7s  %s" % ("name", "suite", "u-ops", "description"))
    for name in workload_names():
        spec = CATALOG[name]
        print("%-17s %-8s %7d  %s" % (name, spec.suite,
                                      len(build_workload(name)),
                                      spec.description))
    return 0


def _config_from(args) -> ProcessorConfig:
    config = ProcessorConfig()
    if getattr(args, "fp_kind", None):
        config = dataclasses.replace(config, fp_kind=args.fp_kind)
    return config


def _trace_for(args):
    """The trace a simulate-family command operates on.

    ``--scale-to N`` builds the iteration-scaled multi-million-µop
    trace; ``--max-uops N`` caps the regular catalog capture; neither
    uses the catalog default (:data:`repro.config.DEFAULT_MAX_UOPS`).
    """
    if getattr(args, "scale_to", None):
        from repro.sampling import build_scaled_workload
        return build_scaled_workload(args.workload, args.scale_to)
    if getattr(args, "max_uops", None):
        return build_workload(args.workload, max_uops=args.max_uops)
    return build_workload(args.workload)


def _render_estimate(est) -> str:
    lines = ["sampled estimate: %s, %s" % (est.workload, est.mode)]
    if est.exact:
        lines.append("  trace too short to sample — simulated in full "
                     "detail (exact, %d µ-ops)" % est.total_uops)
    else:
        lines.append("  %d µ-ops: exact head %d + %d windows × %d "
                     "measured (warming: continuous)"
                     % (est.total_uops, est.head_uops, est.windows,
                        est.window_uops))
    lines.append("  IPC %.4f ± %.2f%%  (95%% CI %.4f – %.4f)"
                 % (est.ipc_estimate, 100 * est.ipc_rel_err,
                    est.ipc_low, est.ipc_high))
    if est.cpi is not None:
        lines.append("  CPI %.4f ± %.4f  (est. %.0f cycles)"
                     % (est.cpi.mean, est.cpi.half_width, est.est_cycles))
    if est.cpi_bucket_shares:
        top = sorted(est.cpi_bucket_shares.items(),
                     key=lambda kv: -kv[1])[:6]
        lines.append("  CPI buckets: " + ", ".join(
            "%s %.1f%%" % (name, 100 * share) for name, share in top))
    return "\n".join(lines)


def _one_mode(args) -> FusionMode:
    """The one configuration ``--mode`` names (default: Helios), which
    ``--fp-kind`` requires to be Helios."""
    mode = _parse_mode(args.mode) if args.mode else FusionMode.HELIOS
    if args.fp_kind and mode is not FusionMode.HELIOS:
        raise SystemExit(
            "--fp-kind selects the Helios fusion predictor and has "
            "no effect with --mode %s; drop it or use --mode Helios"
            % mode.value)
    return mode


def _simulate_sampled(args, config: ProcessorConfig) -> int:
    from repro.sampling import sampled_simulate
    if args.sample < 2:
        raise SystemExit("--sample needs at least 2 strata "
                         "(exact head + one detail window)")
    mode = _one_mode(args)
    est = sampled_simulate(_trace_for(args), config.with_mode(mode),
                           windows=args.sample, name=args.workload)
    print(_render_estimate(est))
    return 0


def _cmd_simulate(args) -> int:
    if args.workload not in CATALOG:
        raise SystemExit("unknown workload %r (see `repro workloads`)"
                         % args.workload)
    config = _config_from(args)
    if args.sample is not None:
        return _simulate_sampled(args, config)
    trace = _trace_for(args)
    if args.mode:
        result = simulate(trace, config.with_mode(_one_mode(args)),
                          name=args.workload)
        print(result.summary())
        return 0
    results = simulate_modes(trace, base_config=config, name=args.workload)
    uplift = ipc_uplift(results)
    print("%-15s %8s %9s" % ("configuration", "IPC", "vs base"))
    for name, result in results.items():
        print("%-15s %8.3f %+8.1f%%"
              % (name, result.ipc, 100 * (uplift[name] - 1)))
    return 0


def _cmd_experiment(args) -> int:
    if args.name == "table2":
        if args.fp_kind:
            raise SystemExit("--fp-kind does not affect table2 "
                             "(static storage arithmetic)")
        print(table2().render())
        return 0
    experiment = _EXPERIMENTS.get(args.name)
    if experiment is None:
        raise SystemExit("unknown experiment %r; choose from: %s, table2"
                         % (args.name, ", ".join(sorted(_EXPERIMENTS))))
    if args.fp_kind and not _simulates_helios(experiment):
        raise SystemExit(
            "--fp-kind selects the Helios fusion predictor, which %r "
            "never simulates; it applies to: %s"
            % (args.name, ", ".join(sorted(
                name for name, fn in _EXPERIMENTS.items()
                if _simulates_helios(fn)))))
    config = _config_from(args)
    workloads = _workload_list(args.workloads)
    if experiment.__name__ not in SWEEP_MODES:
        print(experiment(workloads, config=config).render())
        return 0
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    engine = SweepEngine(jobs=args.jobs, cache=cache,
                         use_cache=not args.no_cache)
    try:
        result = experiment(workloads, config=config, engine=engine)
    except SweepJobError as exc:
        _write_report_json(args.report_json, exc.report)
        print("sweep failed: %s" % exc, file=sys.stderr)
        return 1
    _write_report_json(args.report_json, engine.last_report)
    print(result.render())
    return 0


def _simulates_helios(experiment) -> bool:
    return FusionMode.HELIOS in SWEEP_MODES.get(experiment.__name__, ())


def _write_report_json(path: Optional[str],
                       report: Optional[SweepReport]) -> None:
    """Persist this command's sweep execution report (``--report-json``);
    nothing is written when every cell was a cache hit and no job ran."""
    if not path or report is None:
        return
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
    print("wrote sweep execution report to %s" % path)


def _store_info_or_clear(store, command: str, action: str) -> int:
    """``repro cache`` / ``repro trace``: list or clear one store."""
    if action == "clear":
        print("removed %d file(s) from %s" % (store.clear(), store.root))
        return 0
    entries = store.entries()
    print("%s: %s" % (store.label, store.root))
    print("entries: %d (%.1f KiB)"
          % (len(entries), store.size_bytes() / 1024.0))
    orphans, quarantined = store.orphan_tmps(), store.quarantined()
    if orphans or quarantined:
        print("orphaned tmp files: %d, quarantined corrupt entries: %d "
              "(`repro %s clear` reclaims both)"
              % (len(orphans), len(quarantined), command))
    for entry in entries:
        print("  %-34s %9d B  %s"
              % (entry["what"], entry["bytes"], entry["file"]))
    return 0


def _cmd_cache(args) -> int:
    return _store_info_or_clear(ResultCache(args.cache_dir or None),
                                "cache", args.action)


def _cmd_trace(args) -> int:
    if args.action == "export":
        if not args.workload:
            raise SystemExit("trace export needs a workload name")
        if args.workload not in CATALOG:
            raise SystemExit("unknown workload %r (see `repro workloads`)"
                             % args.workload)
        from repro.isa import save_trace
        trace = build_workload(args.workload)
        out = args.out or ("%s.trace.jsonl" % args.workload)
        save_trace(trace, out)
        print("wrote %d µ-ops to %s (portable JSON-lines)"
              % (len(trace), out))
        return 0
    return _store_info_or_clear(TraceStore(args.trace_dir or None),
                                "trace", args.action)


def _cmd_profile(args) -> int:
    """cProfile one (workload, mode) pipeline run with stage attribution."""
    import json

    from repro.perf import (dump_pstats, profile_run, render_profile,
                            serializable)

    if args.workload not in CATALOG:
        raise SystemExit("unknown workload %r (see `repro workloads`)"
                         % args.workload)
    payload = profile_run(args.workload, mode=_one_mode(args),
                          max_uops=args.max_uops,
                          config=_config_from(args), top=args.top)
    # Write artifacts before printing: a downstream `| head` closing
    # the pipe must not cost the files.
    if args.pstats_out:
        dump_pstats(payload, args.pstats_out)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(serializable(payload), handle, indent=2)
    print(render_profile(payload))
    if args.pstats_out:
        print("\nwrote raw profile to %s (snakeviz/pstats-compatible)"
              % args.pstats_out)
    if args.json_out:
        print("wrote profile payload to %s" % args.json_out)
    return 0


def _cmd_debug(args) -> int:
    """Observability deep-dive on one (workload, configuration) run."""
    from repro.obs import (PipelineObserver, chrome_trace,
                           occupancy_report, validate_chrome_trace,
                           write_chrome_trace)

    if args.workload not in CATALOG:
        raise SystemExit("unknown workload %r (see `repro workloads`)"
                         % args.workload)
    mode = _one_mode(args)
    trace = _trace_for(args)
    config = _config_from(args).with_mode(mode)
    observer = (PipelineObserver(ring_capacity=args.ring) if args.ring
                else PipelineObserver())
    result = simulate(trace, config, name=args.workload, observer=observer)

    print(result.summary())
    print()
    print(result.cpi_report())
    print()
    print(occupancy_report(observer))
    counts = observer.event_counts()
    print()
    print("pipeline events: %d emitted, %d retained (ring %d), %d dropped"
          % (observer.ring.emitted, len(observer.ring),
             observer.ring.capacity, observer.ring.dropped))
    print("  " + ", ".join("%s %d" % (kind, count)
                           for kind, count in counts.items()))
    if args.events_out:
        payload = chrome_trace(observer.events(), workload=args.workload,
                               mode=mode.value,
                               dropped=observer.ring.dropped)
        validate_chrome_trace(payload)
        with open(args.events_out, "w", encoding="utf-8") as handle:
            write_chrome_trace(payload, handle)
        print("wrote %d trace events to %s (load in Perfetto / "
              "chrome://tracing)"
              % (len(payload["traceEvents"]), args.events_out))
    return 0


def _cmd_analyze(args) -> int:
    """Fusion-legality report + differential checks for workload(s)."""
    import json

    from repro.analysis import analyze_workload

    names = _workload_list(args.workloads)
    if not names:
        raise SystemExit("analyze needs at least one workload name")
    modes = [_parse_mode(args.mode)] if args.mode else None
    payloads = []
    failed = False
    for index, name in enumerate(names):
        if index:
            print()
        report = analyze_workload(name, modes=modes,
                                  max_uops=args.max_uops,
                                  sanitize=not args.no_sanitize)
        print(report.render())
        if args.explain is not None:
            print()
            verdicts = report.legality.explain_pc(args.explain)
            if not verdicts:
                print("no fusion candidates at pc 0x%x" % args.explain)
            for verdict in verdicts:
                print("  " + verdict.describe())
        payloads.append(report.to_dict())
        failed = failed or not report.ok
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payloads if len(payloads) > 1 else payloads[0],
                      handle, indent=2)
        print("wrote %s" % args.json)
    return 1 if failed else 0


def _parse_pc_pair(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            "expected two comma-separated PCs, e.g. 0x10008,0x1000c")
    try:
        return tuple(int(p, 0) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("bad PC in %r (hex ok)" % text) from None


def _cmd_static(args) -> int:
    """Static opportunity analysis + the static↔dynamic contract."""
    import json

    from repro.analysis.static.contract import (
        check_workload_contract, render_contract_table)

    names = _workload_list(args.workloads)
    if not names:
        raise SystemExit("static needs at least one workload name")
    modes = ([m.strip() for m in args.mode.split(",") if m.strip()]
             if args.mode else ["oracle", "helios"])
    for mode in modes:
        if mode.lower() != "oracle":
            _parse_mode(mode)  # fail fast on a typo
    contracts = []
    for name in names:
        contract = check_workload_contract(
            name, modes=modes, max_uops=args.max_uops,
            path_budget=args.path_budget)
        contracts.append(contract)
        if args.verbose or not contract.ok:
            print(contract.render())
            print()
    print(render_contract_table(contracts))
    if args.explain is not None:
        head_pc, tail_pc = args.explain
        for contract in contracts:
            static = contract.static
            print()
            print("%s: static candidates at (0x%x, 0x%x):"
                  % (contract.workload, head_pc, tail_pc))
            exact = [c for c in static.candidates.values()
                     if c.head_pc == head_pc and c.tail_pc == tail_pc]
            listed = exact or static.candidates_at_pc(head_pc)
            if not listed:
                print("  none (no walked path pairs these PCs)")
            for candidate in listed[:20]:
                print("  " + candidate.describe())
    if args.json:
        payloads = [c.to_dict(include_candidates=args.candidates)
                    for c in contracts]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payloads if len(payloads) > 1 else payloads[0],
                      handle, indent=2)
        print("wrote %s" % args.json)
    return 0 if all(c.ok for c in contracts) else 1


def _cmd_storage(_args) -> int:
    print(helios_storage_budget().report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Helios instruction-fusion reproduction (MICRO 2022)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the workload catalog") \
        .set_defaults(func=_cmd_workloads)

    sim = sub.add_parser("simulate", help="simulate one workload")
    sim.add_argument("workload")
    sim.add_argument("--mode", help="one configuration (default: all six; "
                                    "--sample default: Helios)")
    sim.add_argument("--fp-kind", choices=["tournament", "tage", "local"],
                     help="fusion predictor organization for Helios")
    sim.add_argument("--max-uops", type=_positive, default=None, metavar="N",
                     help="dynamic µ-op cap per trace (default %d, "
                          "repro.config.DEFAULT_MAX_UOPS)"
                          % DEFAULT_MAX_UOPS)
    sim.add_argument("--scale-to", type=_positive, default=None, metavar="N",
                     help="iteration-scale the kernel until its trace "
                          "reaches ~N µ-ops (multi-million-µop runs; "
                          "overrides --max-uops)")
    sim.add_argument("--sample", type=int, nargs="?",
                     const=_SAMPLE_DEFAULT_WINDOWS,
                     default=None, metavar="N",
                     help="sampled simulation: N systematic strata — "
                          "exact head + N-1 detail windows with "
                          "functional warming between them (default "
                          "N=%(const)s); reports IPC/CPI with a "
                          "95%%-confidence error bar")
    sim.set_defaults(func=_cmd_simulate)

    exp = sub.add_parser("experiment",
                         help="regenerate a paper table/figure")
    exp.add_argument("name", help="fig2|fig3|fig4|fig5|fig8|fig9|fig10|"
                                  "table1|table2|table3|legality")
    exp.add_argument("--workloads",
                     help="comma-separated subset, or 'all' (the "
                          "default)")
    exp.add_argument("--fp-kind", choices=["tournament", "tage", "local"],
                     help="fusion predictor organization for Helios sweeps")
    exp.add_argument("--jobs", type=_jobs_arg, default=None, metavar="N",
                     help="simulate cache misses across N worker "
                          "processes, 0 = one per CPU (default: "
                          "$REPRO_JOBS or 1)")
    exp.add_argument("--cache-dir", metavar="DIR",
                     help="persistent result cache directory "
                          "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    exp.add_argument("--no-cache", action="store_true",
                     help="skip the persistent result cache entirely")
    exp.add_argument("--report-json", metavar="FILE",
                     help="write the sweep execution report (per-job "
                          "attempts, durations, failure classes) here — "
                          "written on failure too")
    exp.set_defaults(func=_cmd_experiment)

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache")
    cache.add_argument("action", nargs="?", default="info",
                       choices=["info", "clear"])
    cache.add_argument("--cache-dir", metavar="DIR",
                       help="cache directory (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro)")
    cache.set_defaults(func=_cmd_cache)

    trace = sub.add_parser(
        "trace", help="inspect/clear the trace store or export a trace")
    trace.add_argument("action", nargs="?", default="info",
                       choices=["info", "clear", "export"])
    trace.add_argument("workload", nargs="?",
                       help="workload to export (action: export)")
    trace.add_argument("--out", metavar="FILE",
                       help="export target (default: <workload>."
                            "trace.jsonl)")
    trace.add_argument("--trace-dir", metavar="DIR",
                       help="trace store directory (default: "
                            "$REPRO_TRACE_DIR or <cache dir>/traces)")
    trace.set_defaults(func=_cmd_trace)

    profile = sub.add_parser(
        "profile", help="cProfile one pipeline run: host time by stage, "
                        "hottest functions, top-down CPI buckets")
    profile.add_argument("workload")
    profile.add_argument("--mode", help="configuration (default: Helios)")
    profile.add_argument("--fp-kind",
                         choices=["tournament", "tage", "local"],
                         help="fusion predictor organization for Helios")
    profile.add_argument("--max-uops", type=_positive, default=None,
                         metavar="N",
                         help="dynamic µ-op cap per trace (default %d, "
                              "repro.config.DEFAULT_MAX_UOPS)"
                              % DEFAULT_MAX_UOPS)
    profile.add_argument("--top", type=_positive, default=15, metavar="N",
                         help="hottest functions to list (default 15)")
    profile.add_argument("--pstats-out", metavar="FILE",
                         help="dump the raw cProfile stats here")
    profile.add_argument("--json-out", metavar="FILE",
                         help="write the JSON payload here")
    profile.set_defaults(func=_cmd_profile)

    debug = sub.add_parser(
        "debug", help="observability deep-dive: top-down CPI breakdown, "
                      "occupancy report, pipeline event trace")
    debug.add_argument("workload")
    debug.add_argument("--mode", help="configuration (default: Helios)")
    debug.add_argument("--fp-kind", choices=["tournament", "tage", "local"],
                       help="fusion predictor organization for Helios")
    debug.add_argument("--events-out", metavar="FILE",
                       help="write the Chrome trace-event JSON here "
                            "(loadable in Perfetto)")
    debug.add_argument("--ring", type=_positive, default=None, metavar="N",
                       help="event ring capacity (default 65536; keeps "
                            "the last N events)")
    debug.add_argument("--max-uops", type=_positive, default=None, metavar="N",
                       help="dynamic µ-op cap per trace (default %d, "
                              "repro.config.DEFAULT_MAX_UOPS)"
                              % DEFAULT_MAX_UOPS)
    debug.set_defaults(func=_cmd_debug)

    analyze = sub.add_parser(
        "analyze", help="fusion-legality report + differential checker: "
                        "prove every committed fused pair legal and the "
                        "committed state bit-exact")
    analyze.add_argument("workloads",
                         help="comma-separated workload name(s), or 'all'")
    analyze.add_argument("--mode",
                         help="one configuration (default: all six)")
    analyze.add_argument("--max-uops", type=_positive, default=None,
                         metavar="N",
                         help="dynamic µ-op cap per trace (default %d, "
                              "repro.config.DEFAULT_MAX_UOPS)"
                              % DEFAULT_MAX_UOPS)
    analyze.add_argument("--no-sanitize", action="store_true",
                         help="skip the per-cycle µ-arch sanitizer "
                              "(faster; legality checks still run)")
    analyze.add_argument("--explain", type=lambda s: int(s, 0),
                         metavar="PC", default=None,
                         help="also print per-candidate verdicts for "
                              "fusion heads at this PC (hex ok)")
    analyze.add_argument("--json", metavar="FILE",
                         help="write the machine-readable report here")
    analyze.set_defaults(func=_cmd_analyze)

    static = sub.add_parser(
        "static", help="static fusion-opportunity analyzer: CFG + "
                       "dataflow candidates per PC pair, cross-checked "
                       "against the dynamic oracle and the pipeline")
    static.add_argument("workloads",
                        help="comma-separated workload name(s), or 'all'")
    static.add_argument("--mode",
                        help="comma-separated dynamic pair sources: "
                             "'oracle' (greedy oracle's legal set) "
                             "and/or a fusion mode such as 'helios' "
                             "(that pipeline's committed pairs); "
                             "default oracle,helios")
    static.add_argument("--max-uops", type=_positive, default=None,
                        metavar="N",
                        help="dynamic µ-op cap per trace (default %d)"
                             % DEFAULT_MAX_UOPS)
    static.add_argument("--path-budget", type=_positive,
                        default=DEFAULT_PATH_BUDGET, metavar="N",
                        help="abstract-execution visit budget per "
                             "memory head (default %d)"
                             % DEFAULT_PATH_BUDGET)
    static.add_argument("--explain", type=_parse_pc_pair, metavar="PC,PC",
                        default=None,
                        help="print the static verdict for one "
                             "(head, tail) PC pair (hex ok)")
    static.add_argument("--verbose", action="store_true",
                        help="full per-workload reports, not just the "
                             "summary table")
    static.add_argument("--candidates", action="store_true",
                        help="include every candidate in the --json "
                             "payload")
    static.add_argument("--json", metavar="FILE",
                        help="write the machine-readable report here")
    static.set_defaults(func=_cmd_static)

    sub.add_parser("storage", help="print the Table II storage budget") \
        .set_defaults(func=_cmd_storage)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`: exit quietly like other CLIs.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
