"""Fault-tolerant sweep execution: the supervisor and its report.

The sweep engine's jobs are coarse (whole-trace simulations) and
embarrassingly parallel, which makes worker loss cheap to recover from
— *if* the execution layer notices.  A bare ``pool.map`` does not: an
OOM-killed worker wedges the map forever, and one failing job aborts
it.  This module provides the machinery that makes
:class:`~repro.experiments.engine.SweepEngine` survive both:

* :func:`run_jobs` — a small process-per-job supervisor replacing
  ``pool.map``.  Every job runs in its own (daemonic, fork-preferring)
  worker process with a dedicated result pipe, so losing one worker —
  SIGKILL, OOM, segfault — loses exactly one in-flight attempt and
  never a completed sibling.
* One failure policy: a job whose pool attempt raised or lost its
  worker runs once more, serially, in the supervisor after the pool
  has drained.  A job is a pure function of its trace and its
  configuration, so a second attempt in the same kind of process would
  meet the same input and fail the same way; only a different kind of
  process — one with no fork and no worker to lose — can change the
  outcome.  Serial sweeps run each job exactly once.  There is no
  per-job deadline: a job that hangs deterministically would hang its
  serial attempt too.
* :class:`SweepReport` — a structured account of every attempt (where
  it ran, how long, how it ended) so a sweep's fault history is
  inspectable (``--report-json``) instead of vanishing into a
  stringified exception.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Failure classes (AttemptRecord.outcome values).
OUTCOME_OK = "ok"
OUTCOME_RAISE = "raise"            # the job raised inside a live worker
OUTCOME_LOST = "lost-worker"       # worker died without reporting back

#: Characters of traceback tail kept when a failure is folded into a
#: :class:`SweepJobError` message (the full text stays on the record).
TRACEBACK_LIMIT_CHARS = 1500


# ------------------------------------------------------- failure + reports --

@dataclass
class JobFailure:
    """Picklable description of one failed attempt.

    Workers ship this back instead of exception objects (not every
    exception survives pickling) — and, unlike the stringified
    ``"ExcType: message"`` it replaces, it carries the worker-side
    traceback so failures are debuggable from the supervisor.
    """

    error: str                       # "ExcType: message"
    kind: str = OUTCOME_RAISE        # raise | lost-worker
    traceback: str = ""
    exitcode: Optional[int] = None

    @classmethod
    def from_exception(cls, exc: BaseException) -> "JobFailure":
        return cls(error="%s: %s" % (type(exc).__name__, exc),
                   traceback=traceback.format_exc())

    def describe(self) -> str:
        """Error plus a sanely-truncated traceback tail."""
        if not self.traceback:
            return self.error
        tail = self.traceback.strip()
        if len(tail) > TRACEBACK_LIMIT_CHARS:
            tail = "... (truncated) ...\n" + tail[-TRACEBACK_LIMIT_CHARS:]
        return "%s\n%s" % (self.error, tail)

    def __str__(self) -> str:
        return self.error


@dataclass
class AttemptRecord:
    """One attempt of one job, wherever and however it ended."""

    attempt: int                     # 1-based, monotonically increasing
    where: str                       # "pool" | "serial"
    outcome: str                     # ok | raise | lost-worker
    duration_s: float
    error: Optional[str] = None
    traceback: Optional[str] = None
    exitcode: Optional[int] = None

    def to_dict(self) -> Dict:
        return {
            "attempt": self.attempt, "where": self.where,
            "outcome": self.outcome,
            "duration_s": round(self.duration_s, 6),
            "error": self.error, "traceback": self.traceback,
            "exitcode": self.exitcode,
        }


@dataclass
class JobRecord:
    """Every attempt of one (workload, mode) job."""

    workload: str
    mode: str
    ok: bool = False
    attempts: List[AttemptRecord] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when the job fell back to in-supervisor serial
        execution after failing the pool."""
        return any(a.where == "serial" for a in self.attempts) \
            and any(a.where == "pool" for a in self.attempts)

    def to_dict(self) -> Dict:
        return {"workload": self.workload, "mode": self.mode,
                "ok": self.ok,
                "attempts": [a.to_dict() for a in self.attempts]}


REPORT_SCHEMA_VERSION = 3


@dataclass
class SweepReport:
    """Structured account of one sweep execution (``--report-json``)."""

    jobs: List[JobRecord] = field(default_factory=list)
    workers: int = 1

    # ------------------------------------------------------- accounting --

    @property
    def attempts_total(self) -> int:
        return sum(len(job.attempts) for job in self.jobs)

    @property
    def failed_jobs(self) -> List[JobRecord]:
        return [job for job in self.jobs if not job.ok]

    @property
    def degraded_jobs(self) -> List[JobRecord]:
        return [job for job in self.jobs if job.degraded]

    def failure_classes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs:
            for attempt in job.attempts:
                if attempt.outcome != OUTCOME_OK:
                    counts[attempt.outcome] = \
                        counts.get(attempt.outcome, 0) + 1
        return counts

    # ------------------------------------------------------------ output --

    def to_dict(self) -> Dict:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "workers": self.workers,
            "jobs": [job.to_dict() for job in self.jobs],
            "summary": {
                "jobs": len(self.jobs),
                "ok": len(self.jobs) - len(self.failed_jobs),
                "failed": len(self.failed_jobs),
                "degraded_to_serial": len(self.degraded_jobs),
                "attempts": self.attempts_total,
                "failure_classes": self.failure_classes(),
            },
        }

    def render(self) -> str:
        """Human-readable summary, one line per job."""
        lines = ["sweep report: %d job(s), %d worker(s)"
                 % (len(self.jobs), self.workers)]
        lines.append("  ok %d, failed %d; degraded-to-serial %d; "
                     "attempts %d"
                     % (len(self.jobs) - len(self.failed_jobs),
                        len(self.failed_jobs), len(self.degraded_jobs),
                        self.attempts_total))
        classes = self.failure_classes()
        if classes:
            lines.append("  failure classes: " + ", ".join(
                "%s %d" % (kind, count)
                for kind, count in sorted(classes.items())))
        for job in self.jobs:
            trail = ", ".join("%s %s" % (a.where, a.outcome)
                              for a in job.attempts)
            total = sum(a.duration_s for a in job.attempts)
            lines.append("  %s/%s: %s after %d attempt(s) [%s] %.2fs"
                         % (job.workload, job.mode,
                            "ok" if job.ok else "FAILED",
                            len(job.attempts), trail, total))
            if not job.ok and job.attempts:
                last = job.attempts[-1]
                if last.error:
                    lines.append("    last error: %s" % last.error)
        return "\n".join(lines)


# ------------------------------------------------------------- supervisor --

#: ``worker(job) -> (ok, payload)`` — must be picklable (module level)
#: and must not raise: failures come back as ``(False, JobFailure)``.
WorkerFn = Callable[[object], Tuple[bool, object]]


def _child_entry(worker: WorkerFn, job: object, conn) -> None:
    """Worker-process main: run the guarded worker, ship the outcome."""
    try:
        outcome = worker(job)
    except BaseException as exc:  # noqa: BLE001 — the pipe must get *something*
        outcome = (False, JobFailure.from_exception(exc))
    try:
        conn.send(outcome)
    except Exception:
        try:
            conn.send((False, JobFailure(
                error="ResultShippingError: outcome could not be "
                      "pickled back to the supervisor")))
        except Exception:
            pass  # supervisor will classify the silence as lost-worker
    finally:
        conn.close()


def _record_attempt(record: JobRecord, where: str, duration: float,
                    failure: Optional[JobFailure]) -> None:
    """Append one attempt, which succeeded unless ``failure`` is set."""
    record.ok = failure is None
    record.attempts.append(AttemptRecord(
        attempt=len(record.attempts) + 1, where=where,
        outcome=OUTCOME_OK if failure is None else failure.kind,
        duration_s=duration,
        error=None if failure is None else failure.error,
        traceback=None if failure is None else (failure.traceback or None),
        exitcode=None if failure is None else failure.exitcode))


def run_jobs(jobs: Sequence[object], worker: WorkerFn,
             labels: Sequence[Tuple[str, str]], *,
             workers: int,
             ) -> Tuple[List[Tuple[bool, object]], SweepReport]:
    """Run every job under the one failure policy; returns
    ``(outcomes, report)``.

    ``outcomes`` is one ``(ok, result_or_JobFailure)`` pair per job in
    job order, exactly like the ``pool.map`` it replaces.  With
    ``workers > 1`` and more than one job, each job gets one attempt in
    its own pool worker — a lost worker (SIGKILL/OOM) fails only its
    own attempt — and a job whose pool attempt failed runs once more,
    serially, in this process after the pool has drained.  Otherwise
    each job runs exactly once, serially, here.
    """
    if len(jobs) != len(labels):
        raise ValueError("jobs and labels length mismatch")
    records = [JobRecord(workload=w, mode=m) for w, m in labels]
    report = SweepReport(jobs=records, workers=max(1, workers))
    outcomes: List[Tuple[bool, object]] = [(False, None)] * len(jobs)
    serial: Iterable[int] = range(len(jobs))
    if workers > 1 and len(jobs) > 1:
        serial = _run_pool(jobs, worker, records, outcomes,
                           workers=workers)
    for index in serial:
        start = time.monotonic()
        ok, payload = worker(jobs[index])
        _record_attempt(records[index], "serial", time.monotonic() - start,
                        None if ok else payload)
        outcomes[index] = (ok, payload)
    return outcomes, report


@dataclass
class _Running:
    index: int
    proc: object
    conn: object
    start: float


def _run_pool(jobs, worker, records, outcomes, *, workers) -> List[int]:
    """One attempt per job, each in its own worker process; returns the
    indices of the jobs whose attempt failed, in job order."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    running: List[_Running] = []
    failed: List[int] = []
    next_index = 0

    def _fail(run: _Running, failure: JobFailure, now: float) -> None:
        _record_attempt(records[run.index], "pool", now - run.start,
                        failure)
        failed.append(run.index)

    try:
        while next_index < len(jobs) or running:
            while next_index < len(jobs) and len(running) < workers:
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_entry,
                    args=(worker, jobs[next_index], child_conn),
                    daemon=True)
                proc.start()
                child_conn.close()
                running.append(_Running(
                    index=next_index, proc=proc, conn=parent_conn,
                    start=time.monotonic()))
                next_index += 1

            multiprocessing.connection.wait(
                [run.conn for run in running]
                + [run.proc.sentinel for run in running])

            now = time.monotonic()
            still: List[_Running] = []
            for run in running:
                finished = True
                try:
                    has_result = run.conn.poll()
                except (EOFError, OSError):
                    has_result = False
                if has_result:
                    try:
                        ok, payload = run.conn.recv()
                    except (EOFError, OSError):
                        ok, payload = False, JobFailure(
                            error="WorkerLost: result channel closed "
                                  "mid-send", kind=OUTCOME_LOST,
                            exitcode=run.proc.exitcode)
                    run.proc.join()
                    if ok:
                        outcomes[run.index] = (True, payload)
                        _record_attempt(records[run.index], "pool",
                                        now - run.start, None)
                    else:
                        _fail(run, payload, now)
                elif not run.proc.is_alive():
                    run.proc.join()
                    _fail(run, JobFailure(
                        error="WorkerLost: worker died with exit code "
                              "%s before returning a result"
                              % run.proc.exitcode,
                        kind=OUTCOME_LOST,
                        exitcode=run.proc.exitcode), now)
                else:
                    finished = False
                    still.append(run)
                if finished:
                    try:
                        run.conn.close()
                    except OSError:
                        pass
            running = still
    finally:
        for run in running:
            try:
                run.proc.kill()
                run.proc.join()
                run.conn.close()
            except OSError:
                pass
    return sorted(failed)
