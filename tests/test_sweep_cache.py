"""Tests for the parallel sweep engine and the persistent result cache
(serialization round-trips, fingerprint keying, corruption recovery,
concurrent-writer safety, parallel-vs-sequential determinism, coverage
bounds)."""

import errno
import json
import os
import time
import warnings

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
from repro.pipeline.core import CoreStats
from repro.workloads import build_workload, ensure_known


@pytest.fixture(scope="module")
def helios_result():
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    return simulate(build_workload("657.xz_1"), config, name="657.xz_1")


# ---- serialization round-trips ----------------------------------------------

def test_core_stats_round_trip(helios_result):
    stats = helios_result.stats
    assert stats.cycles > 0
    assert CoreStats.from_dict(stats.to_dict()) == stats


def test_core_stats_from_dict_tolerates_schema_drift():
    stats = CoreStats.from_dict({"cycles": 7, "some_future_counter": 9})
    assert stats.cycles == 7
    assert stats.instructions == 0  # missing counters keep defaults


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
    assert key.startswith("657.xz_1-")
    assert key.endswith("-v%d" % CACHE_SCHEMA_VERSION)


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


def test_cache_recovers_from_corrupted_file(tmp_path, helios_result):
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    cache.put("657.xz_1", config, helios_result)
    path = cache.path_for(cache_key("657.xz_1", config))
    path.write_text("{ truncated garbage")
    assert cache.get("657.xz_1", config) is None
    assert not path.exists()  # the corrupt entry was dropped
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


def test_cache_inspection_and_clear(tmp_path, helios_result):
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    cache.put("657.xz_1", config, helios_result)
    entries = cache.entries()
    assert len(entries) == 1
    assert entries[0]["workload"] == "657.xz_1"
    assert entries[0]["mode"] == "Helios"
    assert cache.size_bytes() > 0
    assert cache.clear() == 1
    assert cache.entries() == []


# ---- concurrent-writer safety ------------------------------------------------

class _RaceyRoot:
    """Root stub replaying a lost race: the directory listing still
    shows a file another process has already deleted."""

    def __init__(self, real, ghost):
        self._real = real
        self._ghost = ghost

    def glob(self, pattern):
        paths = list(self._real.glob(pattern))
        if self._ghost.match(pattern):
            paths.append(self._ghost)
        return paths


def test_entries_skip_files_deleted_mid_iteration(tmp_path, helios_result):
    # path.stat() used to run outside the try block, so a file deleted
    # by a concurrent clear()/put() between glob and stat crashed
    # `repro cache info` with FileNotFoundError.
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    cache.put("657.xz_1", config, helios_result)
    cache.root = _RaceyRoot(tmp_path, tmp_path / "zz-deleted.json")
    entries = cache.entries()                 # must not raise
    assert [e["workload"] for e in entries] == ["657.xz_1"]
    assert cache.size_bytes() > 0             # must not raise either


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


def test_concurrent_put_survives_corruption_cleanup(tmp_path,
                                                    helios_result,
                                                    monkeypatch):
    # The old blind `path.unlink()` on a corrupt read could delete a
    # *fresh valid* entry that a concurrent put() had just os.replace'd
    # over the corrupt one.  Simulate the two-process interleaving: the
    # reader parses the corrupt bytes, the writer replaces the file,
    # then the reader runs its cleanup.
    cache = ResultCache(tmp_path)
    writer = ResultCache(tmp_path)            # the "other process"
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    cache.put("657.xz_1", config, helios_result)
    path = cache.path_for(cache_key("657.xz_1", config))
    path.write_text("{ corrupt half-written entry")
    real_load = json.load

    def racing_load(handle, *args, **kwargs):
        writer.put("657.xz_1", config, helios_result)
        raise ValueError("simulated corrupt parse")

    monkeypatch.setattr(json, "load", racing_load)
    assert cache.get("657.xz_1", config) is None   # this read: a miss
    monkeypatch.setattr(json, "load", real_load)
    assert path.exists()                      # the fresh entry survived
    assert cache.quarantined() == []          # and was not condemned
    hit = cache.get("657.xz_1", config)
    assert hit is not None and hit.stats == helios_result.stats


def test_stale_orphan_tmps_swept_on_init(tmp_path):
    stale = tmp_path / "dead-writer.tmp"
    stale.write_text("half a payload")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    young = tmp_path / "live-writer.tmp"
    young.write_text("in-flight payload")
    cache = ResultCache(tmp_path)             # init sweeps age-gated
    assert not stale.exists()                 # orphan reclaimed
    assert young.exists()                     # live writer untouched
    assert cache.orphan_tmps() == [young]
    assert cache.entries() == []              # tmps never listed
    assert cache.clear() == 1                 # clear() is not age-gated
    assert cache.orphan_tmps() == []


def test_put_degrades_to_uncached_on_write_failure(tmp_path,
                                                   helios_result,
                                                   monkeypatch):
    from repro.experiments import cache as cache_mod
    cache = ResultCache(tmp_path)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cache_mod.tempfile, "mkstemp", no_space)
    with pytest.warns(RuntimeWarning, match="degraded to uncached"):
        cache.put("657.xz_1", config, helios_result)
    assert cache.degraded
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # the warning fires once
        cache.put("657.xz_1", config, helios_result)
    assert cache.get("657.xz_1", config) is None
    assert list(tmp_path.glob("*.tmp")) == [] # nothing leaked


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
