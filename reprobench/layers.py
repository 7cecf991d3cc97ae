"""The layer boundaries a traced run wraps, and the per-layer metrics.

Each entry of :data:`TARGETS` names one public callable of a ``repro``
layer.  :func:`install` wraps them with a :class:`~spans.Recorder`;
:func:`layer_metrics` turns the recorded spans into host-side metrics
and :func:`model_metrics` turns the run's simulation results into exact
model counts.  Nothing wrapped here is called per simulated cycle or
per µ-op.

A callable a later refactor removes is listed in ``Recorder.absent``
and its metrics read 0; the run does not fail.
"""

from __future__ import annotations

import os

from plan import MODES, TOPDOWN_BUCKETS, metric_mode
from spans import Recorder, Span, self_times


def _count_uops(span: Span, result, args, kwargs) -> None:
    span.counts["uops"] = len(result)


def _store_get(span: Span, result, args, kwargs) -> None:
    span.counts["hit"] = int(result is not None)
    span.counts["uops"] = len(result) if result is not None else 0


def _store_put(span: Span, result, args, kwargs) -> None:
    span.counts["bytes"] = os.path.getsize(result) if result else 0


def _cache_get(span: Span, result, args, kwargs) -> None:
    span.counts["hit"] = int(result is not None)


def _pipeline_run(span: Span, result, args, kwargs) -> None:
    core = args[0]
    observer = getattr(core, "observer", None)
    span.counts["mode"] = core.config.fusion_mode.value
    span.counts["cycles"] = getattr(result, "cycles", 0)
    span.counts["observed"] = int(observer is not None)
    ring = getattr(observer, "ring", None)
    span.counts["events"] = getattr(ring, "emitted", 0)


def _sweep(span: Span, result, args, kwargs) -> None:
    report = getattr(args[0], "last_report", None)
    span.counts["attempts"] = getattr(report, "attempts_total", 0)


_FIGURES = ("figure2", "figure3", "figure4", "figure5", "figure8",
            "figure9", "figure10", "cpi_accounting")
_TABLES = ("table1", "table2", "table3")

#: (kind, module, [class,] attribute, span name, count hook).
TARGETS = (
    ("method", "repro.isa.interp", "Interpreter", "run", "isa.interp",
     _count_uops),
    ("method", "repro.workloads.trace_store", "TraceStore", "get",
     "workloads.store_get", _store_get),
    ("method", "repro.workloads.trace_store", "TraceStore", "put",
     "workloads.store_put", _store_put),
    ("function", "repro.fusion.oracle", "oracle_memory_pairs",
     "fusion.oracle_pairs", None),
    ("function", "repro.fusion.oracle", "analyze_trace", "fusion.census",
     None),
    ("method", "repro.pipeline.core", "PipelineCore", "__init__",
     "pipeline.init", None),
    ("method", "repro.pipeline.core", "PipelineCore", "run",
     "pipeline.run", _pipeline_run),
    ("method", "repro.experiments.engine", "SweepEngine", "sweep",
     "experiments.sweep", _sweep),
    ("method", "repro.experiments.cache", "ResultCache", "get",
     "experiments.rcache_get", _cache_get),
    ("method", "repro.experiments.cache", "ResultCache", "put",
     "experiments.rcache_put", None),
    ("method", "repro.experiments.figures", "ExperimentResult", "render",
     "experiments.render", None),
    ("method", "repro.analysis.legality", "LegalityAnalyzer", "analyze",
     "analysis.legality", None),
    ("function", "repro.analysis.differential", "check_pipeline",
     "analysis.check_pipeline", None),
    ("function", "repro.obs.export", "chrome_trace", "obs.export", None),
    ("function", "repro.obs.export", "validate_chrome_trace",
     "obs.export", None),
) + tuple(("function", "repro.experiments.figures", name,
           "experiments.render", None) for name in _FIGURES) \
  + tuple(("function", "repro.experiments.tables", name,
           "experiments.render", None) for name in _TABLES)

#: A simulated cell is its own operation (see :meth:`Recorder.begin`).
SIMULATE = ("repro.core.simulator", "simulate", "core.simulate")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"trace.overhead_s": "s", "cli.import_s": "s",
             "isa.interp_s": "s", "isa.interp_uops_per_s": "uops/s",
             "workloads.store_put_s": "s", "workloads.store_put_mb": "MB",
             "workloads.store_get_s": "s",
             "workloads.store_get_uops_per_s": "uops/s",
             "workloads.store_hit_ratio": "ratio",
             "fusion.oracle_pairs_s": "s",
             "fusion.oracle_pairs_calls": "count",
             "fusion.census_s": "s", "fusion.census_calls": "count",
             "pipeline.init_s": "s"}
    for mode in MODES:
        units["pipeline.run_s.%s" % metric_mode(mode)] = "s"
        units["pipeline.ns_per_cycle.%s" % metric_mode(mode)] = "ns/cycle"
    units.update({
        "core.simulate_self_s": "s", "experiments.sweep_self_s": "s",
        "experiments.job_attempts": "count",
        "experiments.rcache_put_s": "s", "experiments.rcache_get_s": "s",
        "experiments.rcache_hit_ratio": "ratio",
        "experiments.render_self_s": "s", "analysis.legality_s": "s",
        "analysis.check_pipeline_s": "s",
        "analysis.sanitized_ns_per_cycle": "ns/cycle",
        "obs.observed_run_s": "s", "obs.observed_ns_per_cycle": "ns/cycle",
        "obs.export_s": "s", "obs.events_emitted": "count"})
    for mode in MODES:
        units["pipeline.sim_cycles.%s" % metric_mode(mode)] = "cycles"
    for bucket in TOPDOWN_BUCKETS:
        units["pipeline.cpi.%s" % bucket] = "cycles/uop"
    units.update({"fusion.csf_pairs": "count", "fusion.ncsf_pairs": "count",
                  "predictors.fp_coverage_pct": "%",
                  "predictors.fp_accuracy_pct": "%"})
    return units


def install(recorder: Recorder) -> None:
    """Wrap every target; absent ones land in ``recorder.absent``."""
    for target in TARGETS:
        if target[0] == "method":
            _kind, module, cls, attr, name, hook = target
            recorder.wrap_method(module, cls, attr, name, after=hook)
        else:
            _kind, module, attr, name, hook = target
            recorder.wrap_function(module, attr, name, after=hook)
    module, attr, name = SIMULATE
    recorder.wrap_function(module, attr, name, new_op=True)


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _ns_per(seconds: float, cycles: int) -> float:
    return 1e9 * seconds / cycles if cycles else 0.0


def layer_metrics(spans: list[Span], import_s: float) -> dict[str, float]:
    """Host-side per-layer metrics of one traced iteration."""
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}

    def spans_named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in spans_named(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans_named(name))

    def self_total(name):
        return sum(own[s.span_id] for s in spans_named(name))

    def under(span, name):
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == name:
                return True
            parent = by_id[parent].parent
        return False

    gets = len(spans_named("workloads.store_get"))
    rgets = len(spans_named("experiments.rcache_get"))
    metrics = {
        "cli.import_s": import_s,
        "isa.interp_s": total("isa.interp"),
        "isa.interp_uops_per_s": _per_s(count("isa.interp", "uops"),
                                        total("isa.interp")),
        "workloads.store_put_s": total("workloads.store_put"),
        "workloads.store_put_mb": count("workloads.store_put",
                                        "bytes") / 1e6,
        "workloads.store_get_s": total("workloads.store_get"),
        "workloads.store_get_uops_per_s": _per_s(
            count("workloads.store_get", "uops"),
            total("workloads.store_get")),
        "workloads.store_hit_ratio": (count("workloads.store_get", "hit")
                                      / gets if gets else 0.0),
        "fusion.oracle_pairs_s": total("fusion.oracle_pairs"),
        "fusion.oracle_pairs_calls": len(spans_named("fusion.oracle_pairs")),
        "fusion.census_s": total("fusion.census"),
        "fusion.census_calls": len(spans_named("fusion.census")),
        "pipeline.init_s": total("pipeline.init"),
        "core.simulate_self_s": self_total("core.simulate"),
        "experiments.sweep_self_s": self_total("experiments.sweep"),
        "experiments.job_attempts": count("experiments.sweep", "attempts"),
        "experiments.rcache_put_s": total("experiments.rcache_put"),
        "experiments.rcache_get_s": total("experiments.rcache_get"),
        "experiments.rcache_hit_ratio": (
            count("experiments.rcache_get", "hit") / rgets
            if rgets else 0.0),
        "experiments.render_self_s": self_total("experiments.render"),
        "analysis.legality_s": total("analysis.legality"),
        "analysis.check_pipeline_s": total("analysis.check_pipeline"),
        "obs.export_s": total("obs.export"),
    }

    plain = {mode: [0.0, 0] for mode in MODES}
    sanitized = [0.0, 0]
    observed = [0.0, 0]
    events = 0
    for span in spans_named("pipeline.run"):
        cycles = span.counts.get("cycles", 0)
        if span.counts.get("observed"):
            bucket = observed
            events += span.counts.get("events", 0)
        elif under(span, "analysis.check_pipeline"):
            bucket = sanitized
        else:
            bucket = plain.setdefault(span.counts.get("mode"), [0.0, 0])
        bucket[0] += span.duration
        bucket[1] += cycles
    for mode in MODES:
        seconds, cycles = plain[mode]
        metrics["pipeline.run_s.%s" % metric_mode(mode)] = seconds
        metrics["pipeline.ns_per_cycle.%s" % metric_mode(mode)] = \
            _ns_per(seconds, cycles)
    metrics["analysis.sanitized_ns_per_cycle"] = _ns_per(*sanitized)
    metrics["obs.observed_run_s"] = observed[0]
    metrics["obs.observed_ns_per_cycle"] = _ns_per(*observed)
    metrics["obs.events_emitted"] = events
    return metrics


def model_metrics(cells: list[dict]) -> dict[str, float]:
    """Exact simulated-model counts summed over the run's cells.

    ``cells`` are the plain dicts :func:`cell_record` makes.  These
    repeat exactly for a seed and must not move under a change that
    only claims host speed.
    """
    metrics = {}
    for mode in MODES:
        metrics["pipeline.sim_cycles.%s" % metric_mode(mode)] = sum(
            c["cycles"] for c in cells if c["mode"] == mode)
    instructions = sum(c["instructions"] for c in cells)
    for bucket in TOPDOWN_BUCKETS:
        slots = sum(c["cpi_buckets"].get(bucket, 0) / c["commit_width"]
                    for c in cells)
        metrics["pipeline.cpi.%s" % bucket] = (
            slots / instructions if instructions else 0.0)
    metrics["fusion.csf_pairs"] = sum(c["csf_pairs"] for c in cells)
    metrics["fusion.ncsf_pairs"] = sum(c["ncsf_pairs"] for c in cells)
    helios = [c for c in cells if c["mode"] == "Helios"]
    eligible = sum(c["fp_eligible"] for c in helios)
    resolved = sum(c["fp_correct"] + c["fp_mispredicted"] for c in helios)
    metrics["predictors.fp_coverage_pct"] = (
        100.0 * sum(c["fp_covered"] for c in helios) / eligible
        if eligible else 0.0)
    metrics["predictors.fp_accuracy_pct"] = (
        100.0 * sum(c["fp_correct"] for c in helios) / resolved
        if resolved else 0.0)
    return metrics
