"""Tests for the observability layer: the occupancy histogram, the
event ring + pipeline observer, the Chrome trace / ASCII exporters, the
top-down CPI accounting surfaced on SimResult, and the ``repro debug``
command."""

import io
import json
import math

import pytest

from repro.config import FusionMode, ProcessorConfig
from repro.core.simulator import simulate
from repro.obs import (
    EVENT_KINDS,
    EventRing,
    Histogram,
    PipelineObserver,
    chrome_trace,
    cpi_report,
    occupancy_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs import export
from repro.pipeline.core import TOPDOWN_BUCKETS, PipelineCore
from repro.workloads import build_workload


# ---- histogram ---------------------------------------------------------------

def test_registry_counters_and_histograms():
    hist = Histogram("depth")
    for value in (3, 1, 3, 9):
        hist.observe(value)
    assert hist.count == 4
    assert hist.mean == 4.0
    assert hist.max == 9
    assert hist.percentile(0.5) == 3
    assert hist.percentile(1.0) == 9


def test_registry_empty_histogram_is_safe():
    hist = Histogram("empty")
    assert hist.mean == 0.0
    assert hist.percentile(0.95) == 0


# ---- event ring --------------------------------------------------------------

def test_event_ring_bounds_and_drop_accounting():
    ring = EventRing(capacity=4)
    for cycle in range(10):
        ring.append((cycle, "fetch", cycle, ""))
    assert len(ring) == 4
    assert ring.emitted == 10
    assert ring.dropped == 6
    assert [e[0] for e in ring.events()] == [6, 7, 8, 9]


def test_event_ring_rejects_bad_capacity():
    with pytest.raises(ValueError, match="capacity"):
        EventRing(capacity=0)
    with pytest.raises(ValueError, match="capacity"):
        EventRing(capacity=-1)


def test_environment_arms_no_diagnostic(monkeypatch):
    # The observer and the sanitizer are armed only by passing them in;
    # the variables that once armed them are now ignored.
    monkeypatch.setenv("REPRO_TRACE_EVENTS", "1")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    trace = build_workload("bitcount", max_uops=500)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    assert simulate(trace, config).observer is None
    assert PipelineCore(trace, config)._san is None


def test_observer_counts_and_occupancy():
    obs = PipelineObserver(ring_capacity=8)
    obs.emit(1, "fetch", 0)
    obs.emit(2, "flush", 3, "order")
    obs.emit(2, "flush", 4, "fusion")
    assert obs.event_counts() == {"fetch": 1, "flush": 2}
    obs.sample_occupancy("rob", 10)
    obs.sample_occupancy("rob", 20)
    obs.sample_occupancy("iq", 5)
    histograms = dict(obs.occupancy_histograms())
    assert histograms["rob"].mean == 15.0
    assert histograms["iq"].max == 5


# ---- chrome trace export -----------------------------------------------------

def _small_traced_run(mode=FusionMode.HELIOS, workload="bitcount"):
    trace = build_workload(workload, max_uops=2000)
    observer = PipelineObserver()
    config = ProcessorConfig().with_mode(mode)
    result = simulate(trace, config, name=workload, observer=observer)
    return result, observer


def test_chrome_trace_export_is_valid_and_loads_as_json():
    result, observer = _small_traced_run()
    payload = chrome_trace(observer.events(), workload=result.workload,
                           mode=result.mode.value,
                           dropped=observer.ring.dropped)
    validate_chrome_trace(payload)
    # Round-trips through real JSON (what --events-out writes).
    validate_chrome_trace(json.loads(json.dumps(payload)))
    assert payload["otherData"]["workload"] == "bitcount"
    phases = {event["ph"] for event in payload["traceEvents"]}
    assert phases >= {"M", "X"}
    # Every committed µ-op renders at least its commit slice.
    commits = [e for e in payload["traceEvents"]
               if e["ph"] == "X" and e["args"].get("stage") == "commit"]
    assert commits


def test_write_chrome_trace_writes_the_bytes_of_json_dump(monkeypatch):
    result, observer = _small_traced_run()
    payload = chrome_trace(observer.events(), workload=result.workload,
                           mode=result.mode.value,
                           dropped=observer.ring.dropped)
    dumped = io.StringIO()
    json.dump(payload, dumped)
    # One event per chunk, a chunk boundary inside the list, and the
    # whole list in one chunk.
    for chunk in (1, 7, len(payload["traceEvents"])):
        monkeypatch.setattr(export, "_EVENTS_PER_CHUNK", chunk)
        streamed = io.StringIO()
        write_chrome_trace(payload, streamed)
        assert streamed.getvalue() == dumped.getvalue()


def test_chrome_trace_slices_span_to_next_milestone():
    events = [(10, "fetch", 7, ""), (13, "decode", 7, ""),
              (14, "commit", 7, "")]
    payload = chrome_trace(events)
    slices = {e["args"]["stage"]: e for e in payload["traceEvents"]
              if e["ph"] == "X"}
    assert slices["fetch"]["ts"] == 10 and slices["fetch"]["dur"] == 3
    assert slices["decode"]["dur"] == 1
    assert slices["commit"]["dur"] == 1  # final milestone: one cycle


def test_chrome_trace_irregular_events_become_instants():
    events = [(5, "flush", 9, "order"), (6, "fuse", 2, "ncsf")]
    payload = chrome_trace(events)
    instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
    assert {e["name"] for e in instants} == {"flush:order", "fuse:ncsf"}
    validate_chrome_trace(payload)


def test_validate_chrome_trace_rejects_malformed():
    with pytest.raises(ValueError, match="JSON object"):
        validate_chrome_trace([])
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({"foo": 1})
    with pytest.raises(ValueError, match="unsupported ph"):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "B", "pid": 0, "tid": 0, "ts": 0}]})
    with pytest.raises(ValueError, match="positive integer dur"):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0,
             "dur": 0}]})
    with pytest.raises(ValueError, match="non-negative integer ts"):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "i", "pid": 0, "tid": 0, "ts": -1,
             "s": "t"}]})


# ---- traced pipeline runs ----------------------------------------------------

def test_traced_run_emits_every_stage_for_committed_uops():
    result, observer = _small_traced_run()
    counts = observer.event_counts()
    for kind in ("fetch", "decode", "rename", "dispatch", "issue",
                 "execute", "commit"):
        assert counts.get(kind, 0) > 0, kind
    assert counts["commit"] == result.stats.uops_committed
    # issue and execute are emitted together.
    assert counts["issue"] == counts["execute"]
    assert set(counts) <= set(EVENT_KINDS)


def test_traced_run_records_fusions_and_occupancy():
    result, observer = _small_traced_run()
    counts = observer.event_counts()
    assert counts.get("fuse", 0) >= result.stats.fused_pairs
    structures = dict(observer.occupancy_histograms())
    for name in ("rob", "iq", "fetch_buffer"):
        assert structures[name].count == result.cycles
    assert structures["rob"].max <= ProcessorConfig().rob_size


def test_observer_rides_on_sim_result_but_not_serialization():
    result, observer = _small_traced_run()
    assert result.observer is observer
    assert "observer" not in result.to_dict()


# ---- reports -----------------------------------------------------------------

def test_occupancy_report_renders_table():
    _, observer = _small_traced_run()
    report = occupancy_report(observer)
    assert "structure" in report and "rob" in report and "p95" in report
    assert occupancy_report(PipelineObserver()) \
        == "occupancy: no samples recorded"


def test_cpi_report_shares_sum_to_100():
    result, _ = _small_traced_run()
    report = result.cpi_report()
    assert "top-down CPI accounting" in report
    assert "100.0%" in report  # the total line: fully accounted
    for bucket in ("base", "memory", "frontend"):
        assert bucket in report
    assert cpi_report({}, 0, 8, 0).endswith("(no cycles simulated)")


# ---- top-down accounting on SimResult ---------------------------------------

def test_topdown_buckets_exact_and_derived_shares():
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    trace = build_workload("dijkstra", max_uops=20000)
    result = simulate(trace, config, name="dijkstra")
    buckets = result.cpi_buckets
    assert list(buckets) == list(TOPDOWN_BUCKETS)
    assert sum(buckets.values()) == result.total_commit_slots
    # base = retiring slots plus core-execution-latency stall slots,
    # so it is bounded below by the retired µ-op count.
    assert buckets["base"] >= result.stats.uops_committed
    shares = (result.topdown_share_pct("base") + result.frontend_bound_pct
              + result.backend_bound_pct + result.bad_speculation_pct
              + result.topdown_share_pct("drain"))
    assert shares == pytest.approx(100.0)


def test_topdown_survives_cache_round_trip():
    from repro.core.results import SimResult
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    trace = build_workload("bitcount", max_uops=2000)
    result = simulate(trace, config, name="bitcount")
    back = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert back.cpi_buckets == result.cpi_buckets
    assert back.commit_width == result.commit_width
    assert back.observer is None


# ---- fp accuracy n/a ---------------------------------------------------------

def test_fp_accuracy_is_nan_when_predictor_never_fired():
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    trace = build_workload("bitcount", max_uops=2000)
    result = simulate(trace, config, name="bitcount")
    resolved = (result.stats.fp_fusions_correct
                + result.stats.fp_address_mispredictions)
    if resolved:
        pytest.skip("predictor fired on this trace slice")
    assert math.isnan(result.fp_accuracy_pct)
    assert "n/a" in result.summary()


def test_fp_accuracy_numeric_when_predictor_fired():
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    result = simulate(build_workload("657.xz_1"), config, name="657.xz_1")
    assert not math.isnan(result.fp_accuracy_pct)
    assert 0.0 <= result.fp_accuracy_pct <= 100.0


# ---- debug CLI ---------------------------------------------------------------

def test_cli_debug_smoke(capsys, tmp_path):
    from repro.cli import main
    out_path = tmp_path / "events.trace.json"
    assert main(["debug", "bitcount", "--mode", "Helios",
                 "--max-uops", "2000",
                 "--events-out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "top-down CPI accounting" in out
    assert "structure" in out  # occupancy table
    payload = json.loads(out_path.read_text())
    validate_chrome_trace(payload)


def test_cli_debug_rejects_unknown_workload():
    from repro.cli import main
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["debug", "nope"])
