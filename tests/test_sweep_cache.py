"""Tests for the parallel sweep engine and the persistent result cache
(serialization round-trips, trace and fingerprint keying,
corruption recovery, parallel-vs-sequential determinism, coverage
bounds).  The rest of the cache's crash safety is tested with the trace
store's in test_disk_store.py."""

import dataclasses
import json

import pytest

from repro.config import FusionMode, ProcessorConfig
from repro.core.results import SimResult
from repro.core.simulator import simulate
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cache_key,
)
from repro.experiments.engine import SweepEngine
from repro.isa.interp import run_program
from repro.pipeline.core import CoreStats
from repro.workloads import (
    CATALOG,
    DEFAULT_MAX_UOPS,
    build_program,
    build_workload,
    ensure_known,
)
from repro.workloads import trace_store as trace_store_mod


@pytest.fixture(scope="module")
def helios_result():
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    return simulate(build_workload("657.xz_1"), config, name="657.xz_1")


# ---- serialization round-trips ----------------------------------------------

def test_core_stats_round_trip(helios_result):
    stats = helios_result.stats
    assert stats.cycles > 0
    assert CoreStats.from_dict(stats.to_dict()) == stats


def test_core_stats_from_dict_rejects_schema_drift():
    counters = CoreStats().to_dict()
    with pytest.raises(ValueError):
        CoreStats.from_dict(dict(counters, some_future_counter=9))
    del counters["cycles"]
    with pytest.raises(ValueError):
        CoreStats.from_dict(counters)


def test_sim_result_round_trip_through_json(helios_result):
    wire = json.loads(json.dumps(helios_result.to_dict()))
    back = SimResult.from_dict(wire)
    assert back.workload == helios_result.workload
    assert back.mode is FusionMode.HELIOS
    assert back.stats == helios_result.stats
    assert back.ipc == helios_result.ipc
    assert back.fp_coverage_pct == helios_result.fp_coverage_pct


# ---- fingerprints ------------------------------------------------------------

def test_fingerprint_stable_and_sensitive():
    base = ProcessorConfig()
    assert base.fingerprint() == ProcessorConfig().fingerprint()
    assert base.fingerprint() != base.with_mode(FusionMode.HELIOS).fingerprint()
    assert base.fingerprint() != ProcessorConfig(iq_size=96).fingerprint()
    assert base.fingerprint() != ProcessorConfig(fp_kind="tage").fingerprint()


def test_cache_key_includes_schema_version():
    key = cache_key("657.xz_1", ProcessorConfig())
    assert key.startswith(
        trace_store_mod.trace_key("657.xz_1", DEFAULT_MAX_UOPS) + "-")
    assert key.endswith("-%s-v%d" % (ProcessorConfig().fingerprint(),
                                     CACHE_SCHEMA_VERSION))


# ---- persistent cache --------------------------------------------------------

def test_cache_hit_and_miss_on_config_change(tmp_path, helios_result):
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    assert cache.get("657.xz_1", config) is None  # cold
    cache.put("657.xz_1", config, helios_result)
    hit = cache.get("657.xz_1", config)
    assert hit is not None and hit.stats == helios_result.stats
    # Any config change is a different fingerprint: a miss, not a stale hit.
    assert cache.get("657.xz_1", config.with_mode(FusionMode.ORACLE)) is None
    changed = ProcessorConfig(iq_size=96).with_mode(FusionMode.HELIOS)
    assert cache.get("657.xz_1", changed) is None
    # And a different workload never aliases.
    assert cache.get("605.mcf", config) is None


def test_cached_result_misses_after_its_kernel_changes(tmp_path,
                                                      monkeypatch):
    # A result is keyed by the trace it was simulated from: a catalog
    # edit changes the trace's salt, so the old trace's result stops
    # matching and the sweep simulates the new trace.
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    cache = ResultCache(tmp_path / "cache")
    config = ProcessorConfig().with_mode(FusionMode.NONE)
    old = SweepEngine(jobs=1, cache=cache).sweep(
        [FusionMode.NONE], ["crc32"])["crc32"]["NoFusion"]
    assert cache.get("crc32", config) is not None
    spec = CATALOG["crc32"]
    params = dict(spec.params)
    params["iters"] = params["iters"] * 3 // 4
    monkeypatch.setitem(CATALOG, "crc32", dataclasses.replace(
        spec, params=tuple(sorted(params.items()))))
    monkeypatch.setattr(trace_store_mod, "_SALT_MEMO", {})
    assert cache.get("crc32", config) is None
    new = SweepEngine(jobs=1, cache=cache).sweep(
        [FusionMode.NONE], ["crc32"])["crc32"]["NoFusion"]
    fresh = simulate(run_program(build_program("crc32"),
                                 max_uops=DEFAULT_MAX_UOPS),
                     config, name="crc32")
    assert new.to_dict() == fresh.to_dict()
    assert new.stats.cycles != old.stats.cycles


def test_cache_recovers_from_corrupted_file(tmp_path, helios_result):
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    cache.put("657.xz_1", config, helios_result)
    path = cache.path_for(cache_key("657.xz_1", config))
    path.write_text("{ truncated garbage")
    assert cache.get("657.xz_1", config) is None
    assert not path.exists()  # the corrupt entry was moved aside
    cache.put("657.xz_1", config, helios_result)  # and is re-writable
    assert cache.get("657.xz_1", config) is not None

def test_cache_ignores_schema_mismatch(tmp_path, helios_result):
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    cache.put("657.xz_1", config, helios_result)
    path = cache.path_for(cache_key("657.xz_1", config))
    data = json.loads(path.read_text())
    data["schema"] = CACHE_SCHEMA_VERSION + 1
    path.write_text(json.dumps(data))
    assert cache.get("657.xz_1", config) is None


@pytest.mark.parametrize("drift", ["extra-counter", "missing-counter",
                                   "missing-commit-width"])
def test_cache_entry_with_other_counters_is_a_miss(tmp_path, helios_result,
                                                   drift):
    # An entry written before a counter changed, without a schema bump,
    # must be recomputed, not served with zeroed or dropped counters.
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    cache.put("657.xz_1", config, helios_result)
    path = cache.path_for(cache_key("657.xz_1", config))
    data = json.loads(path.read_text())
    if drift == "extra-counter":
        data["result"]["stats"]["some_future_counter"] = 9
    elif drift == "missing-counter":
        del data["result"]["stats"]["deadlock_unfusions"]
    else:
        del data["result"]["commit_width"]
    path.write_text(json.dumps(data))
    assert cache.get("657.xz_1", config) is None
    assert [p.name for p in cache.quarantined()] == [path.name + ".corrupt"]
    cache.put("657.xz_1", config, helios_result)
    assert cache.get("657.xz_1", config).stats == helios_result.stats


def test_cache_inspection_and_clear(tmp_path, helios_result):
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    cache.put("657.xz_1", config, helios_result)
    entries = cache.entries()
    assert len(entries) == 1
    assert entries[0]["what"] == "657.xz_1 Helios"
    assert cache.size_bytes() > 0
    assert cache.clear() == 1
    assert cache.entries() == []


def test_corrupt_entry_is_quarantined_not_destroyed(tmp_path,
                                                    helios_result):
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    cache.put("657.xz_1", config, helios_result)
    path = cache.path_for(cache_key("657.xz_1", config))
    path.write_text("{ truncated garbage")
    assert cache.get("657.xz_1", config) is None
    # The evidence is preserved out-of-namespace, not unlinked.
    assert not path.exists()
    (quarantined,) = cache.quarantined()
    assert quarantined.name == path.name + ".corrupt"
    assert quarantined.read_text() == "{ truncated garbage"
    assert cache.entries() == []              # out of the namespace
    assert cache.size_bytes() == 0
    assert cache.clear() == 1                 # clear() reclaims it
    assert cache.quarantined() == []


# ---- sweep engine ------------------------------------------------------------

SWEEP_MODES = [FusionMode.NONE, FusionMode.CSF_SBR]
SWEEP_WORKLOADS = ["bitcount", "dijkstra"]


def test_parallel_sweep_identical_to_sequential(tmp_path):
    sequential = SweepEngine(jobs=1, use_cache=False).sweep(
        SWEEP_MODES, SWEEP_WORKLOADS)
    parallel = SweepEngine(jobs=2, use_cache=False).sweep(
        SWEEP_MODES, SWEEP_WORKLOADS)
    for name in SWEEP_WORKLOADS:
        for mode in SWEEP_MODES:
            left = sequential[name][mode.value]
            right = parallel[name][mode.value]
            assert left.to_dict() == right.to_dict(), (name, mode)


def test_sweep_served_from_disk_across_engines(tmp_path):
    cache = ResultCache(tmp_path)
    first = SweepEngine(jobs=1, cache=cache, use_cache=True)
    warm = first.sweep(SWEEP_MODES, SWEEP_WORKLOADS)
    # A fresh engine (fresh memo, same directory) must not simulate.
    second = SweepEngine(jobs=1, cache=cache, use_cache=True)
    second._execute = lambda jobs: pytest.fail(
        "sweep re-simulated despite a warm persistent cache: %r" % jobs)
    served = second.sweep(SWEEP_MODES, SWEEP_WORKLOADS)
    for name in SWEEP_WORKLOADS:
        for mode in SWEEP_MODES:
            assert (served[name][mode.value].to_dict()
                    == warm[name][mode.value].to_dict())


def test_sweep_validates_workload_names(tmp_path):
    engine = SweepEngine(jobs=1, use_cache=False)
    with pytest.raises(ValueError, match="unknown workload 'nope'"):
        engine.sweep([FusionMode.NONE], ["nope"])


# ---- job failure isolation ---------------------------------------------------

def test_sweep_keeps_siblings_when_one_job_crashes(monkeypatch):
    from repro.experiments import engine as engine_mod
    from repro.experiments.engine import SweepJobError

    real = engine_mod._execute_job

    def crashing(job):
        name, _ = job
        if name == "dijkstra":
            raise RuntimeError("boom on %s" % name)
        return real(job)

    monkeypatch.setattr(engine_mod, "_execute_job", crashing)
    engine = SweepEngine(jobs=1, use_cache=False)
    with pytest.raises(SweepJobError) as excinfo:
        engine.sweep([FusionMode.NONE], ["bitcount", "dijkstra"])
    error = excinfo.value
    # The failure names the exact (workload, mode) jobs and the cause.
    assert [(w, m) for w, m, _ in error.failures] \
        == [("dijkstra", "NoFusion")]
    assert "boom on dijkstra" in str(error)
    assert "dijkstra" in str(error) and "NoFusion" in str(error)
    # The healthy sibling's result survived into the memo...
    assert any(key.startswith("bitcount-") for key in engine.memo)
    # ...so a retry only re-runs the failed job.
    monkeypatch.setattr(engine_mod, "_execute_job", real)
    calls = []

    def counting(job):
        calls.append(job[0])
        return real(job)

    monkeypatch.setattr(engine_mod, "_execute_job", counting)
    results = engine.sweep([FusionMode.NONE], ["bitcount", "dijkstra"])
    assert calls == ["dijkstra"]
    assert set(results["bitcount"]) == {"NoFusion"}
    assert set(results["dijkstra"]) == {"NoFusion"}


def test_parallel_sweep_reports_failures_without_aborting(tmp_path):
    # An unknown workload smuggled past validation makes the *worker*
    # raise; the pool run must return the error instead of hanging or
    # discarding the sibling results.
    engine = SweepEngine(jobs=2, use_cache=False)
    engine._preload = lambda jobs: None  # the bad job cannot preload
    monkey_jobs = [("bitcount", ProcessorConfig()),
                   ("not-a-workload", ProcessorConfig())]
    outcomes = engine._execute(monkey_jobs)
    assert len(outcomes) == 2
    ok_flags = [ok for ok, _ in outcomes]
    assert ok_flags == [True, False]
    assert "not-a-workload" in str(outcomes[1][1]) \
        or "unknown" in str(outcomes[1][1])


def test_guarded_worker_ships_traceback_with_failures():
    # Failures come back as a picklable JobFailure carrying the full
    # worker-side traceback — stringifying to "ExcType: message" used
    # to discard it and made worker crashes undebuggable.
    from repro.experiments.engine import _execute_job_guarded
    from repro.experiments.faults import JobFailure
    ok, outcome = _execute_job_guarded(("no-such-workload",
                                        ProcessorConfig()))
    assert not ok
    assert isinstance(outcome, JobFailure)
    assert "no-such-workload" in outcome.error
    assert outcome.error.startswith("KeyError")
    assert "Traceback (most recent call last)" in outcome.traceback
    assert "no-such-workload" in outcome.describe()
    assert "Traceback" in outcome.describe()


# ---- REPRO_JOBS parsing ------------------------------------------------------

def test_default_jobs_parses_env(monkeypatch):
    from repro.experiments.engine import JOBS_ENV, default_jobs
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv(JOBS_ENV, "3")
    assert default_jobs() == 3
    monkeypatch.setenv(JOBS_ENV, "auto")
    assert default_jobs() >= 1
    monkeypatch.setenv(JOBS_ENV, "0")  # documented shorthand for auto
    assert default_jobs() >= 1


@pytest.mark.parametrize("bad", ["four", "2.5", "-1", "many"])
def test_default_jobs_rejects_invalid_env(monkeypatch, bad):
    from repro.experiments.engine import JOBS_ENV, default_jobs
    monkeypatch.setenv(JOBS_ENV, bad)
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()


def test_ensure_known_lists_catalog():
    with pytest.raises(ValueError) as excinfo:
        ensure_known(["bitcount", "typo1", "typo2"])
    message = str(excinfo.value)
    assert "unknown workloads 'typo1', 'typo2'" in message
    assert "repro workloads" in message
    assert "657.xz_1" in message  # the available catalog is listed


def test_custom_config_results_are_memoised():
    # Custom configs key on the fingerprint like everything else.
    config = ProcessorConfig(fp_kind="tage")
    engine = SweepEngine(jobs=1, use_cache=False)
    first = engine.sweep([FusionMode.HELIOS], ["bitcount"], config)
    second = engine.sweep([FusionMode.HELIOS], ["bitcount"], config)
    assert first["bitcount"]["Helios"] is second["bitcount"]["Helios"]


# ---- Table III coverage bounds (the unclamped metric) ------------------------

def test_fp_coverage_bounded_without_clamp(helios_result):
    assert helios_result.eligible_predictive_pairs > 0
    assert (helios_result.stats.fp_covered_pairs
            <= helios_result.eligible_predictive_pairs)
    assert 0.0 <= helios_result.fp_coverage_pct <= 100.0
    # The accuracy numerator still counts every correct fusion.
    assert (helios_result.stats.fp_fusions_correct
            >= helios_result.stats.fp_covered_pairs)


def test_fp_coverage_not_inflated_by_static_pairs():
    # rijndael's predictor redundantly predicts statically-visible
    # pairs: the old clamped metric reported 100 % coverage; the fixed
    # accounting shows these capture (almost) none of the pairs that
    # actually need prediction.
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    result = simulate(build_workload("rijndael"), config, name="rijndael")
    assert result.eligible_predictive_pairs > 0
    assert result.stats.fp_fusions_correct > result.eligible_predictive_pairs
    assert result.fp_coverage_pct < 100.0
