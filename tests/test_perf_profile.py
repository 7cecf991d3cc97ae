"""The profiling subsystem (`repro profile`)."""

import json

import pstats

import pytest

from repro.config import FusionMode
from repro.perf.profile import (
    _CORE_STAGES,
    dump_pstats,
    profile_run,
    render_profile,
    serializable,
)
from repro.pipeline.core import PipelineCore


@pytest.fixture(scope="module")
def payload():
    return profile_run("bitcount", mode=FusionMode.HELIOS,
                       max_uops=8000, top=5)


def test_profile_run_headline(payload):
    assert payload["workload"] == "bitcount"
    assert payload["mode"] == "Helios"
    assert payload["uops"] > 0
    assert payload["cycles"] > 0
    assert payload["profiled_run_s"] > 0


def test_profile_cycles_match_unprofiled_run(payload):
    # The profiler may slow the host, never the simulated machine.
    from repro.config import ProcessorConfig
    from repro.pipeline.core import PipelineCore
    from repro.workloads import build_workload

    trace = build_workload("bitcount", max_uops=8000)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    assert PipelineCore(trace, config).run().cycles == payload["cycles"]


def test_profile_stage_attribution_partitions_time(payload):
    stages = payload["stages"]
    assert stages, "no stages attributed"
    names = {row["stage"] for row in stages}
    # The pipeline stages must be visible in any real run.
    assert {"issue", "commit", "rename"} <= names
    # tottime partitions exactly: percentages sum to ~100.
    assert sum(row["pct"] for row in stages) == pytest.approx(100.0, abs=1.5)


def test_core_stage_map_names_core_methods():
    # A key naming a deleted method charges nothing, and the method
    # that replaced it falls through to ``cycle_loop``.
    stale = [name for name in _CORE_STAGES
             if not callable(getattr(PipelineCore, name, None))]
    assert stale == []
    assert _CORE_STAGES["_unfuse"] == "flush"


def test_profile_top_functions_and_buckets(payload):
    assert len(payload["top_functions"]) == 5
    assert all(row["tottime_s"] >= 0 for row in payload["top_functions"])
    # The same run's simulated top-down buckets ride along.
    assert sum(payload["cpi_buckets"].values()) > 0


def test_render_profile_text(payload):
    text = render_profile(payload)
    assert "host time by pipeline stage" in text
    assert "hottest functions" in text
    assert "simulated top-down slots" in text
    assert "bitcount" in text


def test_serializable_drops_profiler_and_dumps_pstats(payload, tmp_path):
    clean = serializable(payload)
    assert "_profiler" not in clean
    json.dumps(clean)  # must be JSON-safe
    out = tmp_path / "run.pstats"
    dump_pstats(payload, str(out))
    stats = pstats.Stats(str(out))
    assert stats.total_calls > 0


def test_cli_profile_smoke(capsys, tmp_path):
    from repro.cli import main

    pstats_out = tmp_path / "prof.pstats"
    json_out = tmp_path / "prof.json"
    assert main(["profile", "bitcount", "--mode", "NoFusion",
                 "--max-uops", "5000", "--top", "3",
                 "--pstats-out", str(pstats_out),
                 "--json-out", str(json_out)]) == 0
    out = capsys.readouterr().out
    assert "host time by pipeline stage" in out
    assert pstats_out.exists()
    payload = json.loads(json_out.read_text())
    assert payload["workload"] == "bitcount"
    assert "_profiler" not in payload
