"""One supervised worker process per resilient module run.

Phases 3+4 are per-function transactions (:mod:`repro.promotion.
pipeline`).  When a run asks for resilience, they run in one worker
process instead of in the caller, and the parent supervises it:

* **Setup once.**  The worker receives a *promoter* — the pre-phase-3
  module, the profile, the options and the alias-model factory — plus
  the chaos config, calls ``promoter.setup()`` and answers ``ready``.
  A worker that cannot start or set up raises :class:`SupervisorError`
  in the parent; the pipeline then promotes in process instead.
* **One function in flight.**  Each request is one ``(function,
  attempt)``; the worker runs ``chaos.inject`` and then
  ``promoter.promote(name)``, and replies with a :class:`WorkerReply`.
  Because exactly one function is ever in flight, a crash or a hang is
  charged to exactly that function.
* **Deadlines.**  The parent waits on the pipe and on the process
  sentinel for at most ``timeout_s``.  EOF or a dead process is a
  ``worker-crash``; silence past the deadline kills the worker with
  SIGKILL and records a ``timeout``.  Either way the next request goes
  to a fresh worker (``pool_rebuilds`` counts those replacements).
* **Retry and quarantine.**  Transient failures — a crash, a timeout, a
  reply whose error type :class:`~repro.robustness.retry.RetryPolicy`
  calls transient — back off by the seeded schedule and try again.  A
  deterministic failure is one rolled-back attempt, as in process.
  When attempts run out the parent writes the function's final reply
  itself, with status ``quarantined``; the function keeps its
  pre-promotion IR.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.robustness.diagnostics import FunctionOutcome, first_line
from repro.robustness.faults import ChaosConfig
from repro.robustness.retry import AttemptHistory, AttemptRecord, RetryPolicy


class ResilienceOptions:
    """Knobs for the supervised worker (the CLI's ``--timeout``,
    ``--retries`` and ``--chaos`` map onto these via
    :meth:`from_flags`)."""

    def __init__(
        self,
        timeout_s: Optional[float] = None,
        retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        seed: int = 0,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_policy = RetryPolicy(
            max_attempts=retries + 1,
            backoff_base_s=backoff_base_s,
            backoff_max_s=backoff_max_s,
            seed=seed,
        )
        self.seed = seed
        self.chaos = chaos

    @classmethod
    def from_flags(
        cls,
        timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        chaos_spec: Optional[str] = None,
    ) -> Optional["ResilienceOptions"]:
        """The options a ``--timeout``/``--retries``/``--chaos`` triple
        asks for, or ``None`` when none of them is set.  ``retries``
        defaults to 2 and the backoff seed is the chaos seed, so a chaos
        run replays from its spec alone.  Raises :class:`ValueError` on
        a malformed chaos spec or an out-of-range value."""
        if timeout_s is None and retries is None and chaos_spec is None:
            return None
        chaos = None
        if chaos_spec is not None:
            try:
                chaos = ChaosConfig.parse(chaos_spec)
            except ValueError as exc:
                raise ValueError(f"--chaos: {exc}") from None
        return cls(
            timeout_s=timeout_s,
            retries=2 if retries is None else retries,
            seed=chaos.seed if chaos is not None else 0,
            chaos=chaos,
        )

    @property
    def max_attempts(self) -> int:
        return self.retry_policy.max_attempts

    def as_dict(self) -> Dict[str, object]:
        return {
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "seed": self.seed,
            "backoff": self.retry_policy.as_dict(),
            "chaos": self.chaos.as_dict() if self.chaos is not None else None,
        }


class SupervisorError(RuntimeError):
    """The worker could not start or set up; the caller promotes in
    process instead.  Carries the cause in structured form."""

    def __init__(self, error_type: str, detail: str) -> None:
        super().__init__(
            f"supervised worker unavailable ({error_type}: {detail}); "
            "falling back to serial execution"
        )
        self.error_type = error_type
        self.detail = detail

    def as_dict(self) -> Dict[str, Optional[str]]:
        return {"error_type": self.error_type, "detail": self.detail}


class WorkerReply:
    """What the worker produced for one attempt at one function;
    ``status`` is :attr:`FunctionOutcome.PROMOTED` or ``ROLLED_BACK``
    (or ``QUARANTINED`` in the reply the parent writes when attempts
    run out)."""

    def __init__(
        self,
        name: str,
        status: str,
        stage: Optional[str] = None,
        error_type: Optional[str] = None,
        reason: Optional[str] = None,
        duration_ms: float = 0.0,
    ) -> None:
        self.name = name
        self.status = status
        self.stage = stage
        self.error_type = error_type
        self.reason = reason
        self.duration_ms = duration_ms
        #: Promoted only: the stats dict and the transformed IR as an
        #: image (:class:`~repro.robustness.snapshot.FunctionSnapshot`).
        self.stats: Optional[Dict[str, int]] = None
        self.payload = None
        #: This attempt's span records, metrics snapshot and decision
        #: document; ``None`` when that layer was off.
        self.spans: Optional[List[Dict[str, object]]] = None
        self.metrics: Optional[Dict[str, Dict[str, object]]] = None
        self.decisions: Optional[Dict[str, object]] = None


class SupervisorReport:
    """Counters for one supervised run (``diagnostics.resilience``)."""

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.worker_crashes = 0
        self.transient_faults = 0
        #: Fresh workers started after the first, one per crash or hang
        #: (the name predates the single supervised worker).
        self.pool_rebuilds = 0
        self.quarantined: List[str] = []

    def as_dict(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "transient_faults": self.transient_faults,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": list(self.quarantined),
        }


# -- worker side ----------------------------------------------------------


def _worker_main(conn) -> None:
    try:
        promoter, chaos = conn.recv()
        promoter.setup()
    except BaseException as exc:
        conn.send(("setup-failed", type(exc).__name__, first_line(exc)))
        return
    conn.send(("ready", None, None))
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        name, attempt = request
        try:
            if chaos is not None:
                chaos.inject(name, attempt)  # may crash, hang, or raise
            reply = promoter.promote(name)
        except Exception as exc:
            reply = WorkerReply(
                name,
                FunctionOutcome.ROLLED_BACK,
                stage="chaos" if chaos is not None else "worker",
                error_type=type(exc).__name__,
                reason=first_line(exc),
            )
        conn.send(reply)


# -- parent side ----------------------------------------------------------

_CRASH = object()
_TIMEOUT = object()


class Supervisor:
    """Promotes functions one at a time in a supervised worker process.

    ``promoter`` must be picklable and provide ``setup()`` (run once in
    the worker) and ``promote(name) -> WorkerReply``.
    """

    def __init__(self, promoter, resilience: ResilienceOptions) -> None:
        self.promoter = promoter
        self.resilience = resilience
        self.policy: RetryPolicy = resilience.retry_policy
        self.report = SupervisorReport()
        self._proc = None
        self._conn = None
        self._starts = 0
        #: (pid, exit code) of the last worker taken down.
        self._last_exit: Tuple[Optional[int], Optional[int]] = (None, None)

    def run(
        self, names: Sequence[str]
    ) -> Tuple[List[Tuple[WorkerReply, AttemptHistory]], SupervisorReport]:
        """Each name's final reply and attempt history, in order.  Raises
        :class:`SupervisorError` when a worker cannot start or set up."""
        try:
            return [self._promote(name) for name in names], self.report
        finally:
            self._stop()

    # -- one function ------------------------------------------------------

    def _promote(self, name: str) -> Tuple[WorkerReply, AttemptHistory]:
        history = AttemptHistory(name)
        while True:
            attempt = history.attempts + 1
            if self._proc is None:
                self._start()
            started = time.perf_counter()
            reply = self._call((name, attempt))
            elapsed_ms = (time.perf_counter() - started) * 1e3
            if reply is _TIMEOUT:
                reason = f"exceeded {self.resilience.timeout_s}s deadline"
                record = AttemptRecord(
                    attempt,
                    AttemptRecord.TIMEOUT,
                    "TimeoutError",
                    reason,
                    duration_ms=elapsed_ms,
                )
            elif reply is _CRASH:
                pid, code = self._last_exit
                reason = f"worker pid {pid} died (exit code {code})"
                record = AttemptRecord(
                    attempt,
                    AttemptRecord.WORKER_CRASH,
                    "WorkerCrashError",
                    reason,
                    duration_ms=elapsed_ms,
                )
            elif reply.status == FunctionOutcome.PROMOTED:
                record = AttemptRecord(
                    attempt, AttemptRecord.PROMOTED, duration_ms=reply.duration_ms
                )
            else:
                # Deterministic failures are one attempt, rolled back,
                # never retried — the in-process transaction's semantics.
                outcome = AttemptRecord.ROLLED_BACK
                if self.policy.is_transient(reply.error_type):
                    outcome = AttemptRecord.TRANSIENT
                record = AttemptRecord(
                    attempt,
                    outcome,
                    reply.error_type,
                    reply.reason,
                    duration_ms=reply.duration_ms,
                )
            history.add(record)
            if record.outcome in (AttemptRecord.PROMOTED, AttemptRecord.ROLLED_BACK):
                return reply, history
            stage = None if reply is _TIMEOUT or reply is _CRASH else reply.stage
            self._note_failure(record, name, stage)
            if attempt >= self.policy.max_attempts:
                return self._quarantine(name, record, stage), history
            record.backoff_s = self.policy.backoff_s(name, attempt)
            self.report.retries += 1
            time.sleep(record.backoff_s)

    def _note_failure(
        self, record: AttemptRecord, name: str, stage: Optional[str]
    ) -> None:
        """Count one transient-class failure and log it to the flight
        recorder."""
        from repro.observability import flightrecorder

        counter = {
            AttemptRecord.TIMEOUT: "timeouts",
            AttemptRecord.WORKER_CRASH: "worker_crashes",
            AttemptRecord.TRANSIENT: "transient_faults",
        }[record.outcome]
        setattr(self.report, counter, getattr(self.report, counter) + 1)
        flightrecorder.ambient().record(
            "supervisor.attempt_failed",
            function=name,
            attempt=record.attempt,
            outcome=record.outcome,
            error_type=record.error_type,
            reason=record.reason,
            stage=stage,
        )

    def _quarantine(
        self, name: str, record: AttemptRecord, stage: Optional[str]
    ) -> WorkerReply:
        """The final reply for a function out of attempts: it keeps its
        pre-promotion IR, and the reason names the last failure."""
        from repro.observability import flightrecorder

        reason = (
            f"{record.attempt} failed attempt(s), last: "
            f"{record.outcome} ({record.error_type}: {record.reason})"
        )
        self.report.quarantined.append(name)
        recorder = flightrecorder.ambient()
        recorder.record(
            "supervisor.quarantine",
            function=name,
            attempts=record.attempt,
            reason=reason,
        )
        recorder.dump(f"quarantine-{name}")
        return WorkerReply(
            name,
            FunctionOutcome.QUARANTINED,
            stage=stage,
            error_type=record.error_type,
            reason=reason,
            duration_ms=record.duration_ms,
        )

    # -- the worker process ------------------------------------------------

    def _start(self) -> None:
        context = multiprocessing.get_context()
        conn, child = context.Pipe()
        proc = context.Process(
            target=_worker_main, args=(child,), name="repro-promote", daemon=True
        )
        try:
            proc.start()
        except Exception as exc:
            raise SupervisorError(type(exc).__name__, first_line(exc)) from exc
        child.close()
        self._proc, self._conn = proc, conn
        self._starts += 1
        if self._starts > 1:
            self.report.pool_rebuilds += 1
        try:
            conn.send((self.promoter, self.resilience.chaos))
        except Exception as exc:
            self._kill()
            raise SupervisorError(type(exc).__name__, first_line(exc)) from exc
        reply = self._receive(self.resilience.timeout_s)
        if reply is _TIMEOUT or reply is _CRASH:
            self._kill()
            what = "timed out" if reply is _TIMEOUT else "died"
            raise SupervisorError("WorkerSetupError", f"worker {what} during setup")
        status, error_type, detail = reply
        if status != "ready":
            self._kill()
            raise SupervisorError(error_type, detail)

    def _call(self, request: Tuple[str, int]):
        """Send one request; the reply, ``_CRASH`` or ``_TIMEOUT``.  A
        crashed or timed-out worker is gone when this returns."""
        try:
            self._conn.send(request)
        except OSError:
            reply = _CRASH
        else:
            reply = self._receive(self.resilience.timeout_s)
        if reply is _CRASH or reply is _TIMEOUT:
            self._kill()
        return reply

    def _receive(self, timeout: Optional[float]):
        conn, proc = self._conn, self._proc
        ready = wait([conn, proc.sentinel], timeout)
        if not ready:
            return _TIMEOUT
        # A reply that raced the worker's exit still counts.
        if conn in ready or conn.poll(0):
            try:
                return conn.recv()
            except (EOFError, OSError):
                pass
        return _CRASH

    def _kill(self) -> None:
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        proc.kill()
        proc.join()
        conn.close()
        self._last_exit = (proc.pid, proc.exitcode)

    def _stop(self) -> None:
        if self._proc is None:
            return
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._proc.join(timeout=1.0)
        self._kill()
