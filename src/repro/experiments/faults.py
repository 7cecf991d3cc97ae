"""Fault-tolerant sweep execution: scheduler, retries, fault injection.

The sweep engine's jobs are coarse (whole-trace simulations) and
embarrassingly parallel, which makes worker loss cheap to recover from
— *if* the execution layer notices.  A bare ``pool.map`` does not: an
OOM-killed worker wedges the map forever, a hung simulation stalls the
whole sweep, and a transient failure aborts it.  This module provides
the machinery that makes :class:`~repro.experiments.engine.SweepEngine`
survive all three:

* :func:`run_jobs` — a small process-per-job supervisor replacing
  ``pool.map``.  Every job runs in its own (daemonic, fork-preferring)
  worker process with a dedicated result pipe, so losing one worker —
  SIGKILL, OOM, segfault — loses exactly one in-flight attempt and
  never a completed sibling.  The supervisor enforces an optional
  per-job deadline (``REPRO_JOB_TIMEOUT``, default off so existing
  flows stay bit-identical), retries failed attempts with capped,
  jitter-free exponential backoff (``REPRO_JOB_RETRIES``), and
  degrades a job that failed the pool twice to in-process serial
  execution in the supervisor itself, where worker loss is impossible.
* :class:`SweepReport` — a structured account of every attempt (where
  it ran, how long, how it ended) so a sweep's fault history is
  inspectable (``repro sweep-report`` / ``--report-json``) instead of
  vanishing into a stringified exception.
* :func:`maybe_inject_fault` — a test-only fault hook consumed inside
  the worker entry points, driven by ``REPRO_FAULT_INJECT`` (e.g.
  ``hang:0.1,exit:0.05,raise:0.2``).  Decisions are a pure hash of the
  per-attempt token, so a given sweep injects the *same* faults on
  every run — CI can exercise the hang/kill/raise paths
  deterministically.  Faults only ever fire inside pool worker
  processes (the supervisor process is immune), so serial runs and the
  degraded-serial fallback always complete.

Everything here is deliberately free of randomness and wall-clock
decision making: backoff delays are a fixed schedule, injection is
content-addressed, and tests can pin every path.
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# --------------------------------------------------------------- env knobs --

#: Per-job wall-clock deadline in seconds (float).  Unset/``0``/``off``
#: disables the deadline, which keeps existing flows bit-identical (no
#: worker is ever killed mid-simulation).
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

#: How many times a failed job is re-attempted (beyond its first try).
JOB_RETRIES_ENV = "REPRO_JOB_RETRIES"

#: Test-only fault injection spec, e.g. ``hang:0.1,exit:0.05,raise:0.2``.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

DEFAULT_JOB_RETRIES = 2
#: Base of the exponential backoff schedule, in seconds.
DEFAULT_BACKOFF_BASE_S = 0.25
#: Delays never exceed this, however many attempts a job accumulates.
BACKOFF_CAP_S = 30.0
#: Pool failures after which a job's remaining attempts run serially
#: in the supervisor process (where workers cannot be lost or hung).
POOL_FAILURES_BEFORE_DEGRADE = 2
#: Exit code of an injected ``exit`` fault (visible in reports).
FAULT_EXIT_CODE = 86

# Failure classes (AttemptRecord.outcome values).
OUTCOME_OK = "ok"
OUTCOME_RAISE = "raise"            # the job raised inside a live worker
OUTCOME_TIMEOUT = "timeout"        # deadline exceeded; worker killed
OUTCOME_LOST = "lost-worker"       # worker died without reporting back

FAULT_KINDS = ("hang", "exit", "raise")

#: Characters of traceback tail kept when a failure is folded into a
#: :class:`SweepJobError` message (the full text stays on the record).
TRACEBACK_LIMIT_CHARS = 1500


def default_job_timeout() -> Optional[float]:
    """Deadline from ``$REPRO_JOB_TIMEOUT`` (seconds), or ``None``.

    ``0`` and ``off`` mean "no deadline" (the default); anything else
    must parse as a positive float — silently ignoring a typo would
    turn the protection off without telling anyone.
    """
    raw = os.environ.get(JOB_TIMEOUT_ENV, "").strip().lower()
    if not raw or raw in ("0", "0.0", "off", "none"):
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError("invalid %s=%r: expected seconds (float), "
                         "'0' or 'off'" % (JOB_TIMEOUT_ENV, raw)) from None
    if value <= 0 or value != value:  # rejects negatives and NaN
        raise ValueError("invalid %s=%r: deadline must be positive"
                         % (JOB_TIMEOUT_ENV, raw))
    return value


def default_job_retries() -> int:
    """Retry budget from ``$REPRO_JOB_RETRIES`` (default %d)."""
    raw = os.environ.get(JOB_RETRIES_ENV, "").strip()
    if not raw:
        return DEFAULT_JOB_RETRIES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("invalid %s=%r: expected a non-negative integer"
                         % (JOB_RETRIES_ENV, raw)) from None
    if value < 0:
        raise ValueError("invalid %s=%r: retries cannot be negative"
                         % (JOB_RETRIES_ENV, raw))
    return value


default_job_retries.__doc__ = (default_job_retries.__doc__
                               % DEFAULT_JOB_RETRIES)


def backoff_delay(next_attempt: int, base: float) -> float:
    """Deterministic delay before attempt ``next_attempt`` (1-based).

    The schedule is jitter-free so tests are stable: attempt 2 waits
    ``base`` seconds, attempt 3 waits ``2*base``, then ``4*base``, …
    capped at :data:`BACKOFF_CAP_S`.  Attempt 1 never waits.
    """
    if next_attempt <= 1 or base <= 0:
        return 0.0
    return min(base * (2.0 ** (next_attempt - 2)), BACKOFF_CAP_S)


# --------------------------------------------------------- fault injection --

class InjectedFault(RuntimeError):
    """Raised by an injected ``raise`` fault (transient by definition)."""


@dataclass(frozen=True)
class FaultPlan:
    """Parsed ``REPRO_FAULT_INJECT`` spec: ordered (kind, probability)."""

    entries: Tuple[Tuple[str, float], ...]

    def probability(self, kind: str) -> float:
        for name, prob in self.entries:
            if name == kind:
                return prob
        return 0.0

    def decide(self, token: str) -> Optional[str]:
        """The fault to inject for ``token``, or ``None``.

        Pure function of the token: the token's hash is mapped to a
        fraction in [0, 1) and matched against the cumulative
        probability ranges in spec order, so a given (job, attempt)
        fails identically on every run of the same sweep.
        """
        digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
        fraction = int(digest[:12], 16) / float(16 ** 12)
        cumulative = 0.0
        for kind, prob in self.entries:
            cumulative += prob
            if fraction < cumulative:
                return kind
        return None


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse ``kind:prob[,kind:prob...]`` — kinds hang/exit/raise.

    Rejects malformed specs loudly (unknown kind, bad or out-of-range
    probability, duplicate kind, probabilities summing past 1.0): a
    typo here must not silently disable the robustness drill.
    """
    entries: List[Tuple[str, float]] = []
    seen = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise ValueError("empty entry in fault spec %r" % spec)
        kind, sep, prob_text = part.partition(":")
        kind = kind.strip()
        if not sep or not prob_text.strip():
            raise ValueError("fault entry %r is not kind:probability"
                             % part)
        if kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r (choose from %s)"
                             % (kind, ", ".join(FAULT_KINDS)))
        if kind in seen:
            raise ValueError("duplicate fault kind %r in %r"
                             % (kind, spec))
        try:
            prob = float(prob_text)
        except ValueError:
            raise ValueError("fault probability %r is not a float"
                             % prob_text) from None
        if not 0.0 <= prob <= 1.0:  # also rejects NaN
            raise ValueError("fault probability %r outside [0, 1]"
                             % prob_text)
        seen.add(kind)
        entries.append((kind, prob))
    if not entries:
        raise ValueError("empty fault spec")
    if sum(prob for _, prob in entries) > 1.0 + 1e-9:
        raise ValueError("fault probabilities in %r sum past 1.0" % spec)
    return FaultPlan(tuple(entries))


_PLAN_MEMO: Dict[str, FaultPlan] = {}


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan from ``$REPRO_FAULT_INJECT``, or ``None`` when unset.

    Raises :class:`ValueError` on a malformed spec — validated in the
    supervisor before any worker starts, not deep inside one.
    """
    spec = os.environ.get(FAULT_INJECT_ENV, "").strip()
    if not spec:
        return None
    plan = _PLAN_MEMO.get(spec)
    if plan is None:
        plan = parse_fault_spec(spec)
        _PLAN_MEMO[spec] = plan
    return plan


def maybe_inject_fault(token: Optional[str]) -> None:
    """Test-only fault hook called by the worker entry points.

    No-op unless ``$REPRO_FAULT_INJECT`` is set *and* this process is
    a worker (has a parent in the multiprocessing sense): the
    supervisor and plain serial runs are immune by construction, which
    is what guarantees the degraded-serial fallback always completes.
    """
    if not token:
        return
    plan = active_fault_plan()
    if plan is None:
        return
    if multiprocessing.parent_process() is None:
        return
    kind = plan.decide(token)
    if kind is None:
        return
    if kind == "exit":
        os._exit(FAULT_EXIT_CODE)      # abrupt death: SIGKILL/OOM stand-in
    if kind == "raise":
        raise InjectedFault("injected fault (token %r)" % token)
    if kind == "hang":
        while True:                    # killed by the job deadline
            time.sleep(0.5)


def ensure_hang_faults_bounded(timeout: Optional[float]) -> None:
    """Refuse a pool run that could hang forever.

    Called by the supervisor before spawning workers: injecting
    ``hang`` faults without a job deadline would wedge the sweep the
    way the pre-fault-tolerance engine did, so make it a loud error.
    Also surfaces malformed specs early (see :func:`active_fault_plan`).
    """
    plan = active_fault_plan()
    if plan is not None and plan.probability("hang") > 0 and timeout is None:
        raise ValueError(
            "%s injects hang faults but no job deadline is set; pass "
            "--job-timeout or set %s" % (FAULT_INJECT_ENV, JOB_TIMEOUT_ENV))


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
    kind: str = OUTCOME_RAISE        # raise | timeout | lost-worker
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


def as_failure(payload: object,
               kind: str = OUTCOME_RAISE) -> JobFailure:
    """Coerce a worker failure payload to :class:`JobFailure`.

    Tolerates the legacy stringified form so monkeypatched workers in
    older tests (and third-party worker functions) keep working.
    """
    if isinstance(payload, JobFailure):
        return payload
    return JobFailure(error=str(payload), kind=kind)


@dataclass
class AttemptRecord:
    """One attempt of one job, wherever and however it ended."""

    attempt: int                     # 1-based, monotonically increasing
    where: str                       # "pool" | "serial"
    outcome: str                     # ok | raise | timeout | lost-worker
    duration_s: float
    error: Optional[str] = None
    traceback: Optional[str] = None
    exitcode: Optional[int] = None
    backoff_s: float = 0.0           # delay scheduled before the NEXT attempt

    def to_dict(self) -> Dict:
        return {
            "attempt": self.attempt, "where": self.where,
            "outcome": self.outcome,
            "duration_s": round(self.duration_s, 6),
            "error": self.error, "traceback": self.traceback,
            "exitcode": self.exitcode, "backoff_s": self.backoff_s,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AttemptRecord":
        return cls(attempt=int(data["attempt"]), where=data["where"],
                   outcome=data["outcome"],
                   duration_s=float(data["duration_s"]),
                   error=data.get("error"),
                   traceback=data.get("traceback"),
                   exitcode=data.get("exitcode"),
                   backoff_s=float(data.get("backoff_s", 0.0)))


@dataclass
class JobRecord:
    """Every attempt of one (workload, mode) job."""

    workload: str
    mode: str
    ok: bool = False
    attempts: List[AttemptRecord] = field(default_factory=list)

    @property
    def retried(self) -> bool:
        return len(self.attempts) > 1

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

    @classmethod
    def from_dict(cls, data: Dict) -> "JobRecord":
        return cls(workload=data["workload"], mode=data["mode"],
                   ok=bool(data["ok"]),
                   attempts=[AttemptRecord.from_dict(a)
                             for a in data["attempts"]])


REPORT_SCHEMA_VERSION = 1


@dataclass
class SweepReport:
    """Structured account of one sweep execution (``--report-json``)."""

    jobs: List[JobRecord] = field(default_factory=list)
    workers: int = 1
    timeout_s: Optional[float] = None
    retries: int = 0

    # ------------------------------------------------------- accounting --

    @property
    def attempts_total(self) -> int:
        return sum(len(job.attempts) for job in self.jobs)

    @property
    def failed_jobs(self) -> List[JobRecord]:
        return [job for job in self.jobs if not job.ok]

    @property
    def retried_jobs(self) -> List[JobRecord]:
        return [job for job in self.jobs if job.retried]

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

    # ---------------------------------------------------------- wire I/O --

    def to_dict(self) -> Dict:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "workers": self.workers,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "jobs": [job.to_dict() for job in self.jobs],
            "summary": {
                "jobs": len(self.jobs),
                "ok": len(self.jobs) - len(self.failed_jobs),
                "failed": len(self.failed_jobs),
                "retried": len(self.retried_jobs),
                "degraded_to_serial": len(self.degraded_jobs),
                "attempts": self.attempts_total,
                "failure_classes": self.failure_classes(),
            },
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepReport":
        if not isinstance(data, dict) or "jobs" not in data:
            raise ValueError("not a sweep report payload (no 'jobs')")
        if data.get("schema") != REPORT_SCHEMA_VERSION:
            raise ValueError("unsupported sweep report schema %r"
                             % data.get("schema"))
        timeout = data.get("timeout_s")
        return cls(jobs=[JobRecord.from_dict(j) for j in data["jobs"]],
                   workers=int(data.get("workers", 1)),
                   timeout_s=None if timeout is None else float(timeout),
                   retries=int(data.get("retries", 0)))

    def render(self) -> str:
        """Human-readable summary (``repro sweep-report``)."""
        lines = ["sweep report: %d job(s), %d worker(s), timeout %s, "
                 "retries %d"
                 % (len(self.jobs), self.workers,
                    ("off" if self.timeout_s is None
                     else "%.1fs" % self.timeout_s), self.retries)]
        lines.append("  ok %d, failed %d; retried %d, "
                     "degraded-to-serial %d; attempts %d"
                     % (len(self.jobs) - len(self.failed_jobs),
                        len(self.failed_jobs), len(self.retried_jobs),
                        len(self.degraded_jobs), self.attempts_total))
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

#: ``worker(job, token) -> (ok, payload)`` — must be picklable (module
#: level) and must not raise: failures come back as ``(False, ...)``.
WorkerFn = Callable[[object, Optional[str]], Tuple[bool, object]]


def _attempt_token(record: JobRecord, attempt: int) -> str:
    """Deterministic per-attempt token (drives fault injection)."""
    return "%s|%s|a%d" % (record.workload, record.mode, attempt)


def _child_entry(worker: WorkerFn, job: object, token: Optional[str],
                 conn) -> None:
    """Worker-process main: run the guarded worker, ship the outcome."""
    try:
        outcome = worker(job, token)
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


@dataclass
class _Running:
    index: int
    attempt: int
    proc: object
    conn: object
    start: float
    deadline: Optional[float]


def _preferred_context(mp_context=None):
    if mp_context is not None:
        return mp_context
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods
                                      else None)


def run_jobs(jobs: Sequence[object], worker: WorkerFn,
             labels: Sequence[Tuple[str, str]], *,
             workers: int,
             timeout: Optional[float] = None,
             retries: Optional[int] = None,
             backoff_base: float = DEFAULT_BACKOFF_BASE_S,
             mp_context=None,
             ) -> Tuple[List[Tuple[bool, object]], SweepReport]:
    """Run every job fault-tolerantly; returns (outcomes, report).

    ``outcomes`` is one ``(ok, result_or_JobFailure)`` pair per job in
    job order, exactly like the ``pool.map`` it replaces — but a hung
    job is killed at its deadline, a lost worker (SIGKILL/OOM) fails
    only its own attempt, failed attempts are retried up to ``retries``
    times with deterministic exponential backoff, and a job that
    failed the pool :data:`POOL_FAILURES_BEFORE_DEGRADE` times runs
    its remaining attempts serially in this process.  With
    ``workers <= 1`` everything runs serially here (no deadline — a
    process cannot kill itself mid-job) with the same retry policy; so
    does a single-job batch, which a pool buys nothing.
    """
    if len(jobs) != len(labels):
        raise ValueError("jobs and labels length mismatch")
    retries = default_job_retries() if retries is None else retries
    max_attempts = 1 + max(0, retries)
    records = [JobRecord(workload=w, mode=m) for w, m in labels]
    report = SweepReport(jobs=records, workers=max(1, workers),
                         timeout_s=timeout, retries=retries)
    outcomes: List[Optional[Tuple[bool, object]]] = [None] * len(jobs)

    use_pool = workers > 1 and len(jobs) > 1

    # Validate the injection spec up front (and refuse unbounded hangs)
    # even on the serial path: a malformed REPRO_FAULT_INJECT must fail
    # the run, not silently skip injection.
    if use_pool:
        ensure_hang_faults_bounded(timeout)
    else:
        active_fault_plan()

    if not use_pool:
        _run_serial_attempts(jobs, worker, records, outcomes,
                             range(len(jobs)), 1, max_attempts,
                             backoff_base)
        return [out for out in outcomes], report  # type: ignore[misc]

    _run_pool(jobs, worker, records, outcomes, workers=workers,
              timeout=timeout, max_attempts=max_attempts,
              backoff_base=backoff_base, mp_context=mp_context)
    return [out for out in outcomes], report  # type: ignore[misc]


def _record_attempt(record: JobRecord, attempt: int, where: str,
                    duration: float, ok: bool,
                    failure: Optional[JobFailure]) -> AttemptRecord:
    entry = AttemptRecord(
        attempt=attempt, where=where,
        outcome=OUTCOME_OK if ok else failure.kind,
        duration_s=duration,
        error=None if ok else failure.error,
        traceback=None if ok else (failure.traceback or None),
        exitcode=None if ok else failure.exitcode)
    record.attempts.append(entry)
    return entry


def _run_serial_attempts(jobs, worker, records, outcomes, indices,
                         first_attempt_for_all, max_attempts,
                         backoff_base,
                         first_attempts: Optional[Dict[int, int]] = None,
                         ) -> None:
    """Attempt loop in the supervisor process (serial mode and the
    degraded-serial phase of the pool mode)."""
    for index in indices:
        record = records[index]
        attempt = (first_attempts[index] if first_attempts is not None
                   else first_attempt_for_all)
        while True:
            token = _attempt_token(record, attempt)
            start = time.monotonic()
            ok, payload = worker(jobs[index], token)
            duration = time.monotonic() - start
            failure = None if ok else as_failure(payload)
            entry = _record_attempt(record, attempt, "serial", duration,
                                    ok, failure)
            if ok:
                record.ok = True
                outcomes[index] = (True, payload)
                break
            outcomes[index] = (False, failure)
            if attempt >= max_attempts:
                break
            attempt += 1
            delay = backoff_delay(attempt, backoff_base)
            entry.backoff_s = delay
            if delay:
                time.sleep(delay)


def _run_pool(jobs, worker, records, outcomes, *, workers, timeout,
              max_attempts, backoff_base, mp_context) -> None:
    ctx = _preferred_context(mp_context)
    # Min-heap of (ready_at, seq, index, attempt): seq keeps the pop
    # order stable when several retries become ready together.
    pending: List[Tuple[float, int, int, int]] = []
    seq = 0
    for index in range(len(jobs)):
        heapq.heappush(pending, (0.0, seq, index, 1))
        seq += 1
    running: List[_Running] = []
    pool_failures = [0] * len(jobs)
    # Jobs degraded to the serial phase: index -> next attempt number.
    degraded: Dict[int, int] = {}

    def _spawn(index: int, attempt: int) -> None:
        token = _attempt_token(records[index], attempt)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child_entry,
                           args=(worker, jobs[index], token, child_conn),
                           daemon=True)
        proc.start()
        child_conn.close()
        start = time.monotonic()
        running.append(_Running(
            index=index, attempt=attempt, proc=proc, conn=parent_conn,
            start=start,
            deadline=None if timeout is None else start + timeout))

    def _fail(run: _Running, failure: JobFailure, now: float) -> None:
        record = records[run.index]
        entry = _record_attempt(record, run.attempt, "pool",
                                now - run.start, False, failure)
        outcomes[run.index] = (False, failure)
        pool_failures[run.index] += 1
        if run.attempt >= max_attempts:
            return
        next_attempt = run.attempt + 1
        delay = backoff_delay(next_attempt, backoff_base)
        entry.backoff_s = delay
        if pool_failures[run.index] >= POOL_FAILURES_BEFORE_DEGRADE:
            degraded[run.index] = next_attempt
        else:
            nonlocal seq
            heapq.heappush(pending,
                           (now + delay, seq, run.index, next_attempt))
            seq += 1

    try:
        while pending or running:
            now = time.monotonic()
            while pending and len(running) < workers \
                    and pending[0][0] <= now:
                _, _, index, attempt = heapq.heappop(pending)
                _spawn(index, attempt)
            if not running:
                # Only delayed retries left: sleep until the first is due.
                time.sleep(max(0.0, pending[0][0] - time.monotonic()))
                continue

            waits = []
            if timeout is not None:
                waits.extend(run.deadline - now for run in running)
            if pending and len(running) < workers:
                waits.append(pending[0][0] - now)
            wait_s = max(0.0, min(waits)) if waits else None
            wait_objs = ([run.conn for run in running]
                         + [run.proc.sentinel for run in running])
            multiprocessing.connection.wait(wait_objs, timeout=wait_s)

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
                        records[run.index].ok = True
                        outcomes[run.index] = (True, payload)
                        _record_attempt(records[run.index], run.attempt,
                                        "pool", now - run.start, True,
                                        None)
                    else:
                        _fail(run, as_failure(payload), now)
                elif not run.proc.is_alive():
                    run.proc.join()
                    _fail(run, JobFailure(
                        error="WorkerLost: worker died with exit code "
                              "%s before returning a result"
                              % run.proc.exitcode,
                        kind=OUTCOME_LOST,
                        exitcode=run.proc.exitcode), now)
                elif run.deadline is not None and now >= run.deadline:
                    run.proc.kill()
                    run.proc.join()
                    _fail(run, JobFailure(
                        error="JobTimeout: exceeded the %.1fs per-job "
                              "deadline; worker killed" % timeout,
                        kind=OUTCOME_TIMEOUT,
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

    if degraded:
        # Degraded-serial phase after the pool settles: deadlines for
        # pool siblings stay enforced above; these attempts run where
        # workers cannot be lost (and fault injection never fires).
        _run_serial_attempts(jobs, worker, records, outcomes,
                             sorted(degraded), 0, max_attempts,
                             backoff_base, first_attempts=degraded)
