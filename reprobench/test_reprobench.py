"""Tests of the benchmark's own code (no simulation is run).

    python3 -m pytest reprobench
"""

from __future__ import annotations

import json
import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import (  # noqa: E402
    check_cell, check_experiment, stats_digest, table_rows)
from layers import layer_metrics, model_metrics, per_layer_units  # noqa: E402
from plan import (  # noqa: E402
    COLD, DIAGNOSE, HELIOS_LONG, MODES, TOLERANCE, TOPDOWN_BUCKETS,
    WARM, WORKLOADS, balanced_subset, make_plan, metric_mode)
from spans import Recorder, Span, replace_everywhere, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _load(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def reference():
    return _load("reference.json")


@pytest.fixture(scope="module")
def bench_json():
    return _load(os.path.join(os.pardir, "BENCHMARK.json"))


# ------------------------------------------------------------------ names --

def test_metric_names_are_well_formed(bench_json):
    declared = [m["name"]
                for m in bench_json["end_to_end"] + bench_json["per_layer"]]
    assert len(set(declared)) == len(declared)
    names = declared + list(per_layer_units()) + list(WORKLOADS)
    assert [n for n in names if not NAME.match(n)] == []
    assert [metric_mode(m) for m in MODES] == [
        "nofusion", "riscvfusion", "csf-sbr", "riscvfusionpp", "helios",
        "oraclefusion"]


def test_per_layer_list_matches_what_a_traced_run_reports(bench_json):
    declared = {m["name"]: m["unit"] for m in bench_json["per_layer"]}
    assert declared == per_layer_units()
    reported = set(layer_metrics([], 0.1)) | set(model_metrics([]))
    assert reported | {"trace.overhead_s"} == set(declared)


def test_workloads_match_benchmark_json(bench_json):
    assert [w["name"] for w in bench_json["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench_json["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb"}


# ------------------------------------------------------------------ spans --

def _span(span_id, start, end, parent=None):
    return Span(span_id=span_id, name="s%d" % span_id, start=start, end=end,
                parent=parent)


def test_self_time_subtracts_direct_children_only():
    spans = [_span(0, 0.0, 10.0),
             _span(1, 1.0, 4.0, parent=0),
             _span(2, 2.0, 3.0, parent=1),    # grandchild of 0
             _span(3, 5.0, 9.0, parent=0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0),
             _span(1, 1.0, 6.0, parent=0),
             _span(2, 4.0, 8.0, parent=0),
             _span(3, 9.0, 12.0, parent=0)]   # clipped at the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_recorder_nests_spans_and_shares_operation_ids():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return [1, 2, 3]

    def cell():
        return traced_leaf()

    traced_leaf = recorder.traced(
        "leaf", leaf, after=lambda s, r, a, k: s.counts.update(n=len(r)))
    traced_cell = recorder.traced("cell", cell, new_op=True)
    root = recorder.begin("command", new_op=True)
    traced_cell()
    traced_cell()
    recorder.end(root)
    command, cell_a, leaf_a, cell_b, leaf_b = recorder.spans
    assert leaf_a.parent == cell_a.span_id and cell_a.parent == 0
    assert leaf_a.counts == {"n": 3}
    assert cell_a.op_id == leaf_a.op_id != command.op_id
    assert cell_b.op_id == leaf_b.op_id != cell_a.op_id
    assert self_times(recorder.spans)[command.span_id] == pytest.approx(
        command.duration - cell_a.duration - cell_b.duration)


def test_replace_everywhere_rebinds_module_globals_and_dict_values():
    def original():
        return "original"

    module = types.ModuleType("fakepkg.mod")
    module.alias = original
    module.table = {"x": original, "y": len}
    sys.modules["fakepkg.mod"] = module
    try:
        assert replace_everywhere(original, len, prefix="fakepkg") == 2
        assert module.alias is len and module.table["x"] is len
    finally:
        del sys.modules["fakepkg.mod"]


def test_absent_callable_is_reported_not_raised():
    recorder = Recorder()
    assert recorder.wrap_function("json", "no_such_function", "x") == 0
    assert recorder.wrap_method("json", "NoSuchClass", "run", "x") == 0
    assert recorder.absent == ["json.no_such_function",
                               "json.NoSuchClass.run"]


def test_layer_metrics_split_pipeline_runs_by_hook():
    spans = [
        Span(0, "core.simulate", 0.0, 4.0),
        Span(1, "pipeline.run", 1.0, 3.0, parent=0,
             counts={"mode": "Helios", "cycles": 1000, "observed": 0}),
        Span(2, "analysis.check_pipeline", 4.0, 8.0),
        Span(3, "pipeline.run", 5.0, 8.0, parent=2,
             counts={"mode": "Helios", "cycles": 1000, "observed": 0}),
        Span(4, "pipeline.run", 8.0, 12.0,
             counts={"mode": "Helios", "cycles": 2000, "observed": 1,
                     "events": 77}),
    ]
    metrics = layer_metrics(spans, 0.2)
    assert metrics["pipeline.run_s.helios"] == pytest.approx(2.0)
    assert metrics["pipeline.ns_per_cycle.helios"] == pytest.approx(2e6)
    assert metrics["analysis.sanitized_ns_per_cycle"] == pytest.approx(3e6)
    assert metrics["obs.observed_ns_per_cycle"] == pytest.approx(2e6)
    assert metrics["obs.events_emitted"] == 77
    assert metrics["core.simulate_self_s"] == pytest.approx(2.0)
    assert metrics["pipeline.run_s.nofusion"] == 0.0


def test_model_metrics_pool_counts_over_cells():
    def cell(mode, cycles, covered=0, eligible=0, correct=0, wrong=0):
        return {"mode": mode, "cycles": cycles, "instructions": 100,
                "cpi_buckets": {"base": 8 * 50, "memory": 8 * 50},
                "commit_width": 8, "csf_pairs": 1, "ncsf_pairs": 2,
                "fp_covered": covered, "fp_eligible": eligible,
                "fp_correct": correct, "fp_mispredicted": wrong}
    metrics = model_metrics([cell("NoFusion", 100),
                             cell("Helios", 90, 3, 4, 9, 1)])
    assert metrics["pipeline.sim_cycles.nofusion"] == 100
    assert metrics["pipeline.sim_cycles.helios"] == 90
    assert metrics["pipeline.cpi.base"] == pytest.approx(0.5)
    assert metrics["fusion.ncsf_pairs"] == 4
    assert metrics["predictors.fp_coverage_pct"] == pytest.approx(75.0)
    assert metrics["predictors.fp_accuracy_pct"] == pytest.approx(90.0)
    assert set(TOPDOWN_BUCKETS) == {
        n.split(".")[-1] for n in metrics if n.startswith("pipeline.cpi.")}


# ------------------------------------------------------------------ seeds --

def test_seed_to_subset_is_deterministic_and_family_distinct(reference):
    catalog = reference["catalog"]
    seen = set()
    for seed in range(40):
        for kind in (COLD, WARM):
            subset = balanced_subset(kind, seed, catalog)
            assert subset == balanced_subset(kind, seed, catalog)
            assert len({catalog[n]["family"] for n in subset}) == \
                len(subset) == kind[1]
            cost = sum(catalog[n]["cost_s"] for n in subset)
            assert abs(cost - kind[2]) <= TOLERANCE * kind[2]
            if kind[3]:
                uops = sum(catalog[n]["uops"] for n in subset)
                assert abs(uops - kind[3]) <= TOLERANCE * kind[3]
        for workload in WORKLOADS:
            assert make_plan(workload, seed, catalog) == \
                make_plan(workload, seed, catalog)
        seen.add(tuple(balanced_subset(COLD, seed, catalog)))
    assert len(seen) > 30


def test_plans_only_name_pinned_inputs(reference):
    for name, target in HELIOS_LONG:
        assert "%s@%d|Helios" % (name, target) in reference["cells"]
    for name in DIAGNOSE:
        assert "%s|Helios" % name in reference["cells"]
    for seed in range(10):
        for workload in WORKLOADS:
            plan = make_plan(workload, seed, reference["catalog"])
            assert all(isinstance(arg, str)
                       for argv in plan["commands"] for arg in argv)


# ----------------------------------------------------------------- checks --

def test_output_check_flags_a_perturbed_reference_cell(reference):
    key = "605.mcf|Helios"
    cell = {"workload": "605.mcf", "mode": "Helios",
            **reference["cells"][key]}
    assert check_cell(cell, reference) is None
    for field, bad in (("cycles", cell["cycles"] + 1),
                       ("digest", stats_digest({"cycles": 1}))):
        perturbed = dict(reference, cells=dict(reference["cells"]))
        perturbed["cells"][key] = dict(reference["cells"][key],
                                       **{field: bad})
        assert "605.mcf|Helios" in check_cell(cell, perturbed)


def test_output_check_flags_perturbed_rendered_text(reference):
    text = reference["census_text"]["fig2"]
    assert check_experiment("fig2", text, [], reference) is None
    assert check_experiment("fig2", text.replace("1", "2", 1), [],
                            reference)
    row = reference["sim_rows"]["fig10"]["605.mcf"]
    rendered = "workload | x\n605.mcf | %s\n" % " | ".join(row)
    assert table_rows(rendered)["605.mcf"] == row
    assert check_experiment("fig10", rendered, ["605.mcf"], reference) \
        is None
    moved = "workload | x\n605.mcf | %s\n" % " | ".join(["9.99"] + row[1:])
    assert check_experiment("fig10", moved, ["605.mcf"], reference)
