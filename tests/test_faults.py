"""Tests for the fault-tolerant sweep scheduler and its one failure
policy (one pool attempt, then one serial attempt in the supervisor for
a job that failed the pool): lost-worker recovery, SweepReport
accounting, and engine-level end-to-end runs with faults injected into
pool workers."""

import json
import multiprocessing
import os

import pytest

from repro.config import FusionMode
from repro.experiments import engine as engine_mod
from repro.experiments.engine import SweepEngine, SweepJobError
from repro.experiments.faults import JobFailure, run_jobs


def _in_pool():
    """True inside a pool worker; the supervisor has no parent."""
    return multiprocessing.parent_process() is not None


# ---- JobFailure --------------------------------------------------------------


def test_job_failure_carries_and_truncates_traceback():
    try:
        raise RuntimeError("kaboom")
    except RuntimeError as exc:
        failure = JobFailure.from_exception(exc)
    assert failure.error == "RuntimeError: kaboom"
    assert "Traceback (most recent call last)" in failure.traceback
    assert "kaboom" in failure.describe()
    long = JobFailure(error="E: e", traceback="x" * 10000)
    described = long.describe()
    assert "... (truncated) ..." in described
    assert len(described) < 2000


# ---- scheduler: toy workers --------------------------------------------------

def _ok_worker(job):
    return True, {"job": job}


def _always_fail_worker(job):
    return False, JobFailure(error="PermanentError: job %r" % (job,))


def _pool_raise_worker(job):
    # Fails in any pool worker process; succeeds in the supervisor —
    # the shape of a job that completes only in its serial attempt.
    if _in_pool():
        return False, JobFailure(error="PoolOnlyError: dies in workers")
    return True, job * 10


def _exit_job1_worker(job):
    if job == 1 and _in_pool():
        os._exit(9)  # abrupt worker death (SIGKILL/OOM stand-in)
    return True, job * 10


def _trail(record):
    return [(a.where, a.outcome) for a in record.attempts]


def test_run_jobs_rejects_label_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        run_jobs([1, 2], _ok_worker, [("w", "m")], workers=1)


def test_run_jobs_serial_success_and_report():
    jobs = [0, 1, 2]
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _ok_worker, labels, workers=1)
    assert [ok for ok, _ in outcomes] == [True] * 3
    assert [p["job"] for _, p in outcomes] == jobs
    assert report.attempts_total == 3
    assert not report.failed_jobs and not report.degraded_jobs
    assert all(a.where == "serial"
               for job in report.jobs for a in job.attempts)


@pytest.mark.parametrize("workers,trail", [
    (1, ["serial"]),
    (2, ["pool", "serial"]),
], ids=["serial", "pool"])
def test_permanently_failing_job_runs_once_per_kind_of_process(
        workers, trail):
    # A deterministic job that fails gets no second attempt in the
    # same kind of process: once serially, or once in the pool and
    # once more in the supervisor.
    outcomes, report = run_jobs([3, 4], _always_fail_worker,
                                [("w3", "m"), ("w4", "m")],
                                workers=workers)
    for (ok, failure), record in zip(outcomes, report.jobs):
        assert not ok and isinstance(failure, JobFailure)
        assert "PermanentError" in failure.error
        assert [a.where for a in record.attempts] == trail
        assert [a.attempt for a in record.attempts] \
            == list(range(1, len(trail) + 1))
    assert len(report.failed_jobs) == 2
    assert report.failure_classes() == {"raise": 2 * len(trail)}


def test_run_jobs_pool_preserves_job_order():
    jobs = list(range(5))
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _ok_worker, labels, workers=3)
    assert [p["job"] for _, p in outcomes] == jobs
    assert report.workers == 3
    assert all(a.where == "pool"
               for job in report.jobs for a in job.attempts)


def test_pool_retries_worker_raise():
    jobs = [4, 5]
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _pool_raise_worker, labels,
                                workers=2)
    assert outcomes == [(True, 40), (True, 50)]
    for record in report.jobs:
        assert _trail(record) == [("pool", "raise"), ("serial", "ok")]
    assert report.failure_classes() == {"raise": 2}


def test_lost_worker_keeps_completed_siblings():
    jobs = [0, 1]
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _exit_job1_worker, labels,
                                workers=2)
    # The killed worker lost only its own attempt: both jobs complete.
    assert outcomes == [(True, 0), (True, 10)]
    healthy, killed = report.jobs
    assert _trail(healthy) == [("pool", "ok")]
    assert _trail(killed) == [("pool", "lost-worker"), ("serial", "ok")]
    assert killed.attempts[0].exitcode == 9


def test_double_pool_failure_degrades_to_serial():
    # Both jobs fail the pool; each degrades to the supervisor.
    jobs = [0, 1]
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _pool_raise_worker, labels,
                                workers=2)
    assert outcomes == [(True, 0), (True, 10)]
    for record in report.jobs:
        assert [a.where for a in record.attempts] == ["pool", "serial"]
        assert record.degraded and record.ok
    assert len(report.degraded_jobs) == 2
    assert report.to_dict()["summary"]["degraded_to_serial"] == 2


# ---- SweepReport wire format -------------------------------------------------


def test_sweep_report_round_trips_through_json():
    _, report = run_jobs([0, 1], _always_fail_worker,
                         [("w0", "m"), ("w1", "m")], workers=1)
    payload = report.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["schema"] == 3
    assert "timeout_s" not in payload
    assert payload["summary"]["failed"] == 2
    assert payload["summary"]["attempts"] == 2
    assert set(payload["jobs"][0]["attempts"][0]) == {
        "attempt", "where", "outcome", "duration_s", "error",
        "traceback", "exitcode"}
    rendered = report.render()
    assert "2 job(s)" in rendered
    assert "failed 2" in rendered
    assert "[serial raise]" in rendered
    assert "last error: PermanentError" in rendered


# ---- engine end-to-end with faults in pool workers ---------------------------

_DRILL_WORKLOADS = ["bitcount", "crc32"]


def _fault_in_pool(kind):
    """Stand-in for ``engine._execute_job`` that fails every job in a
    pool worker (forked workers inherit it) and runs it in the
    supervisor."""
    real = engine_mod._execute_job

    def execute(job):
        if _in_pool():
            if kind == "exit":
                os._exit(86)
            raise RuntimeError("injected pool fault")
        return real(job)
    return execute


@pytest.mark.parametrize("kind,expected_class", [
    ("raise", "raise"),
    ("exit", "lost-worker"),
])
def test_sweep_under_injection_matches_fault_free_serial(
        monkeypatch, kind, expected_class):
    expect = SweepEngine(jobs=1, use_cache=False).sweep(
        [FusionMode.NONE], _DRILL_WORKLOADS)
    monkeypatch.setattr(engine_mod, "_execute_job", _fault_in_pool(kind))
    engine = SweepEngine(jobs=2, use_cache=False)
    injected = engine.sweep([FusionMode.NONE], _DRILL_WORKLOADS)
    for name in _DRILL_WORKLOADS:
        assert injected[name]["NoFusion"].to_dict() \
            == expect[name]["NoFusion"].to_dict()
    # Every job failed its one pool attempt, then completed in the
    # supervisor, where the injected fault never fires.
    report = engine.last_report
    for record in report.jobs:
        assert _trail(record) == [("pool", expected_class),
                                  ("serial", "ok")]
    assert report.failure_classes() \
        == {expected_class: len(_DRILL_WORKLOADS)}


def test_sweep_job_error_carries_report_and_traceback(monkeypatch):
    def exploding(job):
        raise RuntimeError("boom in the worker")

    monkeypatch.setattr(engine_mod, "_execute_job", exploding)
    engine = SweepEngine(jobs=1, use_cache=False)
    with pytest.raises(SweepJobError) as excinfo:
        engine.sweep([FusionMode.NONE], ["bitcount"])
    error = excinfo.value
    assert error.report is engine.last_report is not None
    assert "boom in the worker" in str(error)
    assert "Traceback (most recent call last)" in str(error)
    (record,) = error.report.jobs
    assert not record.ok
    assert _trail(record) == [("serial", "raise")]
    assert record.attempts[-1].traceback


def test_environment_arms_no_sweep_policy(monkeypatch):
    # No variable arms a deadline, a retry budget or a fault injector:
    # junk values neither fail the engine nor change a sweep.
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
    monkeypatch.setenv("REPRO_JOB_RETRIES", "-1")
    monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:1.0")
    engine = SweepEngine(jobs=2, use_cache=False)
    engine.sweep([FusionMode.NONE], _DRILL_WORKLOADS)
    report = engine.last_report
    assert report.failure_classes() == {}
    assert [len(record.attempts) for record in report.jobs] == [1, 1]


def test_sweeps_have_no_job_deadline():
    # A deadline never applied to serial attempts, and a job killed at
    # it re-ran in the supervisor with none: both parameters are gone.
    with pytest.raises(TypeError, match="job_timeout"):
        SweepEngine(jobs=2, job_timeout=5.0)
    with pytest.raises(TypeError, match="timeout"):
        run_jobs([1], _ok_worker, [("w", "m")], workers=1, timeout=5.0)
