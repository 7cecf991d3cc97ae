"""Tests for the fault-tolerant sweep scheduler and the fault-injection
harness (spec parsing, deterministic injection decisions, retry/backoff
policy, lost-worker recovery, deadline kills, pool-to-serial
degradation, SweepReport accounting, engine-level end-to-end drills)."""

import json
import multiprocessing
import os
import time

import pytest

from repro.config import FusionMode
from repro.experiments.engine import SweepEngine, SweepJobError
from repro.experiments.faults import (
    BACKOFF_CAP_S,
    DEFAULT_JOB_RETRIES,
    FAULT_INJECT_ENV,
    JOB_RETRIES_ENV,
    JOB_TIMEOUT_ENV,
    JobFailure,
    SweepReport,
    backoff_delay,
    default_job_retries,
    default_job_timeout,
    ensure_hang_faults_bounded,
    maybe_inject_fault,
    parse_fault_spec,
    run_jobs,
)

# ---- fault spec parsing ------------------------------------------------------


def test_parse_fault_spec_valid():
    plan = parse_fault_spec("hang:0.1, exit:0.05,raise:0.2")
    assert plan.probability("hang") == 0.1
    assert plan.probability("exit") == 0.05
    assert plan.probability("raise") == 0.2
    assert plan.probability("oom") == 0.0


@pytest.mark.parametrize("bad", [
    "oom:0.5",              # unknown kind
    "hang:0.1,hang:0.2",    # duplicate kind
    "hang:lots",            # non-float probability
    "hang:-0.1",            # below range
    "hang:1.5",             # above range
    "hang:nan",             # NaN smuggled past the range check
    "hang:0.6,exit:0.6",    # probabilities sum past 1.0
    "hang",                 # no probability at all
    "hang:",                # empty probability
    "",                     # empty spec
    "hang:0.1,,exit:0.1",   # empty entry
])
def test_parse_fault_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_fault_spec(bad)


def test_fault_decisions_are_deterministic():
    plan = parse_fault_spec("hang:0.3,exit:0.3,raise:0.3")
    decisions = [plan.decide("w%d|m|a1" % i) for i in range(64)]
    assert decisions == [plan.decide("w%d|m|a1" % i) for i in range(64)]
    # With 90% total probability some tokens must draw each outcome.
    assert set(decisions) > {None}
    assert parse_fault_spec("raise:1.0").decide("anything") == "raise"
    assert parse_fault_spec("raise:0.0").decide("anything") is None


def test_injection_never_fires_in_the_supervisor(monkeypatch):
    # The supervisor process has no multiprocessing parent, so even a
    # certain fault must not fire here — this is what guarantees the
    # degraded-serial fallback always completes.
    monkeypatch.setenv(FAULT_INJECT_ENV, "raise:1.0")
    assert multiprocessing.parent_process() is None
    maybe_inject_fault("w|m|a1")  # must not raise


def test_ensure_hang_faults_bounded(monkeypatch):
    monkeypatch.delenv(FAULT_INJECT_ENV, raising=False)
    ensure_hang_faults_bounded(None)  # no plan: fine
    monkeypatch.setenv(FAULT_INJECT_ENV, "hang:0.5")
    ensure_hang_faults_bounded(10.0)  # bounded: fine
    with pytest.raises(ValueError, match="no job deadline"):
        ensure_hang_faults_bounded(None)
    monkeypatch.setenv(FAULT_INJECT_ENV, "exit:0.5")
    ensure_hang_faults_bounded(None)  # exits cannot wedge the sweep


# ---- retry/backoff policy ----------------------------------------------------


def test_backoff_schedule_is_deterministic_and_capped():
    assert backoff_delay(1, 0.25) == 0.0       # first attempt never waits
    assert backoff_delay(2, 0.25) == 0.25
    assert backoff_delay(3, 0.25) == 0.5
    assert backoff_delay(4, 0.25) == 1.0
    assert backoff_delay(60, 0.25) == BACKOFF_CAP_S
    assert backoff_delay(5, 0.0) == 0.0        # zero base disables delays


def test_env_knob_parsing(monkeypatch):
    monkeypatch.delenv(JOB_TIMEOUT_ENV, raising=False)
    monkeypatch.delenv(JOB_RETRIES_ENV, raising=False)
    assert default_job_timeout() is None
    assert default_job_retries() == DEFAULT_JOB_RETRIES
    monkeypatch.setenv(JOB_TIMEOUT_ENV, "12.5")
    assert default_job_timeout() == 12.5
    monkeypatch.setenv(JOB_TIMEOUT_ENV, "off")
    assert default_job_timeout() is None
    monkeypatch.setenv(JOB_RETRIES_ENV, "5")
    assert default_job_retries() == 5


@pytest.mark.parametrize("env,bad", [
    (JOB_TIMEOUT_ENV, "soon"), (JOB_TIMEOUT_ENV, "-3"),
    (JOB_RETRIES_ENV, "-1"), (JOB_RETRIES_ENV, "2.5"),
])
def test_env_knobs_reject_junk(monkeypatch, env, bad):
    monkeypatch.setenv(env, bad)
    parser = {JOB_TIMEOUT_ENV: default_job_timeout,
              JOB_RETRIES_ENV: default_job_retries}[env]
    with pytest.raises(ValueError, match=env):
        parser()


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

def _attempt_of(token):
    return int(token.rsplit("a", 1)[1])


def _ok_worker(job, token):
    return True, {"job": job, "token": token}


def _fail_first_worker(job, token):
    if _attempt_of(token) < 2:
        return False, JobFailure(error="TransientError: attempt 1")
    return True, job * 10


def _always_fail_worker(job, token):
    return False, JobFailure(error="PermanentError: job %r" % (job,))


def _exit_job1_worker(job, token):
    if job == 1 and _attempt_of(token) == 1:
        os._exit(9)  # abrupt worker death (SIGKILL/OOM stand-in)
    return True, job * 10


def _hang_job1_worker(job, token):
    if job == 1 and _attempt_of(token) == 1:
        time.sleep(60)  # killed by the per-job deadline
    return True, job * 10


def _pool_poison_worker(job, token):
    # Fails in any pool worker process; succeeds in the supervisor —
    # the shape of a job that can only complete after degradation.
    if multiprocessing.parent_process() is not None:
        return False, JobFailure(error="PoolOnlyError: dies in workers")
    return True, ("serial", job)


def test_run_jobs_rejects_label_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        run_jobs([1, 2], _ok_worker, [("w", "m")], workers=1)


def test_run_jobs_serial_success_and_report():
    jobs = [0, 1, 2]
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _ok_worker, labels, workers=1,
                                retries=2, backoff_base=0.0)
    assert [ok for ok, _ in outcomes] == [True] * 3
    assert [p["job"] for _, p in outcomes] == jobs
    assert report.attempts_total == 3
    assert not report.failed_jobs and not report.retried_jobs
    assert all(a.where == "serial"
               for job in report.jobs for a in job.attempts)


def test_run_jobs_serial_retries_transient_failure():
    outcomes, report = run_jobs([7], _fail_first_worker, [("w", "m")],
                                workers=1, retries=2, backoff_base=0.0)
    assert outcomes == [(True, 70)]
    (record,) = report.jobs
    assert [a.outcome for a in record.attempts] == ["raise", "ok"]
    assert record.retried and not record.degraded


def test_run_jobs_exhausts_retries_without_raising():
    outcomes, report = run_jobs([3], _always_fail_worker, [("w", "m")],
                                workers=1, retries=1, backoff_base=0.0)
    ok, failure = outcomes[0]
    assert not ok and isinstance(failure, JobFailure)
    assert "PermanentError" in failure.error
    assert len(report.failed_jobs) == 1
    assert report.attempts_total == 2  # 1 try + 1 retry


def test_run_jobs_pool_preserves_job_order():
    jobs = list(range(5))
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _ok_worker, labels, workers=3,
                                retries=1, backoff_base=0.0)
    assert [p["job"] for _, p in outcomes] == jobs
    assert report.workers == 3
    assert all(a.where == "pool"
               for job in report.jobs for a in job.attempts)


def test_pool_retries_worker_raise():
    jobs = [4, 5]
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _fail_first_worker, labels,
                                workers=2, retries=2, backoff_base=0.0)
    assert outcomes == [(True, 40), (True, 50)]
    for record in report.jobs:
        assert [a.outcome for a in record.attempts] == ["raise", "ok"]
    assert report.failure_classes() == {"raise": 2}


def test_lost_worker_keeps_completed_siblings():
    jobs = [0, 1]
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _exit_job1_worker, labels,
                                workers=2, retries=2, backoff_base=0.0)
    # The killed worker lost only its own attempt: both jobs complete.
    assert outcomes == [(True, 0), (True, 10)]
    healthy, killed = report.jobs
    assert [a.outcome for a in healthy.attempts] == ["ok"]
    assert [a.outcome for a in killed.attempts] == ["lost-worker", "ok"]
    assert killed.attempts[0].exitcode == 9


def test_hung_job_hits_deadline_and_is_retried():
    jobs = [0, 1]
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _hang_job1_worker, labels,
                                workers=2, timeout=1.0, retries=2,
                                backoff_base=0.0)
    assert outcomes == [(True, 0), (True, 10)]
    hung = report.jobs[1]
    assert [a.outcome for a in hung.attempts] == ["timeout", "ok"]
    assert hung.attempts[0].duration_s >= 1.0
    assert "deadline" in hung.attempts[0].error


def test_double_pool_failure_degrades_to_serial():
    jobs = [0, 1]
    labels = [("w%d" % j, "m") for j in jobs]
    outcomes, report = run_jobs(jobs, _pool_poison_worker, labels,
                                workers=2, retries=2, backoff_base=0.0)
    assert outcomes == [(True, ("serial", 0)), (True, ("serial", 1))]
    for record in report.jobs:
        assert [a.where for a in record.attempts] \
            == ["pool", "pool", "serial"]
        assert record.degraded and record.ok
    assert len(report.degraded_jobs) == 2


def test_pool_run_refuses_unbounded_hang_injection(monkeypatch):
    monkeypatch.setenv(FAULT_INJECT_ENV, "hang:1.0")
    with pytest.raises(ValueError, match="no job deadline"):
        run_jobs([0, 1], _ok_worker, [("a", "m"), ("b", "m")],
                 workers=2, retries=0, backoff_base=0.0)


def test_malformed_spec_fails_even_serial_runs(monkeypatch):
    monkeypatch.setenv(FAULT_INJECT_ENV, "bogus:0.5")
    with pytest.raises(ValueError, match="unknown fault kind"):
        run_jobs([0], _ok_worker, [("a", "m")], workers=1,
                 retries=0, backoff_base=0.0)


# ---- SweepReport wire format -------------------------------------------------


def test_sweep_report_round_trips_through_json():
    _, report = run_jobs([0, 1], _fail_first_worker,
                         [("w0", "m"), ("w1", "m")], workers=1,
                         retries=2, backoff_base=0.0)
    wire = json.loads(json.dumps(report.to_dict()))
    assert wire["summary"]["retried"] == 2
    back = SweepReport.from_dict(wire)
    assert back.to_dict() == report.to_dict()
    rendered = back.render()
    assert "2 job(s)" in rendered
    assert "retried 2" in rendered
    assert "serial raise, serial ok" in rendered


@pytest.mark.parametrize("payload", [
    [], {"not": "a report"}, {"schema": 999, "jobs": []},
])
def test_sweep_report_rejects_foreign_payloads(payload):
    with pytest.raises(ValueError):
        SweepReport.from_dict(payload)


# ---- engine end-to-end under injection ---------------------------------------

_DRILL_WORKLOADS = ["bitcount", "crc32"]


@pytest.mark.parametrize("spec,expected_class", [
    ("raise:1.0", "raise"),
    ("exit:1.0", "lost-worker"),
])
def test_sweep_under_injection_matches_fault_free_serial(
        monkeypatch, spec, expected_class):
    expect = SweepEngine(jobs=1, use_cache=False).sweep(
        [FusionMode.NONE], _DRILL_WORKLOADS)
    monkeypatch.setenv(FAULT_INJECT_ENV, spec)
    engine = SweepEngine(jobs=2, use_cache=False, retries=2,
                         backoff_base=0.0)
    injected = engine.sweep([FusionMode.NONE], _DRILL_WORKLOADS)
    for name in _DRILL_WORKLOADS:
        assert injected[name]["NoFusion"].to_dict() \
            == expect[name]["NoFusion"].to_dict()
    # Every job drew the certain fault twice in the pool, then
    # completed in the immune degraded-serial phase.
    report = engine.last_report
    assert len(report.degraded_jobs) == len(_DRILL_WORKLOADS)
    assert report.attempts_total == 3 * len(_DRILL_WORKLOADS)
    assert report.failure_classes() \
        == {expected_class: 2 * len(_DRILL_WORKLOADS)}


def test_sweep_job_error_carries_report_and_traceback(monkeypatch):
    from repro.experiments import engine as engine_mod

    def exploding(job):
        raise RuntimeError("boom in the worker")

    monkeypatch.setattr(engine_mod, "_execute_job", exploding)
    engine = SweepEngine(jobs=1, use_cache=False, retries=0,
                         backoff_base=0.0)
    with pytest.raises(SweepJobError) as excinfo:
        engine.sweep([FusionMode.NONE], ["bitcount"])
    error = excinfo.value
    assert error.report is engine.last_report is not None
    assert "boom in the worker" in str(error)
    assert "Traceback (most recent call last)" in str(error)
    (record,) = error.report.jobs
    assert not record.ok
    assert record.attempts[-1].traceback
