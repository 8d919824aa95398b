"""Promotion-as-a-service: the long-lived asyncio daemon.

One process, one event loop, four moving parts:

* the shared HTTP/1.1 edge (:class:`~repro.service.http.HttpFront`:
  stdlib only, ``Connection: close`` per request, slow-loris and size
  guards, introspection routes, signal-driven drain) plus an optional
  stdio-JSONL transport for pipe-driven clients;
* the :class:`~repro.service.admission.AdmissionController` in front of
  the :class:`~repro.service.engine.PromotionEngine`'s worker thread
  pool — bounded queueing, honest 429 shedding, drain-aware;
* a :class:`~repro.service.breaker.CircuitBreaker` that opens after a
  storm of engine-level failures and half-opens after backoff;
* a watchdog heartbeat task whose age backs ``/healthz`` — if the event
  loop wedges, the age grows and an external monitor can tell.

Request lifecycle: parse (slow-loris guarded) → validate → breaker
check → admission slot → dispatch with a deadline → structured JSON
response.  ``POST /v1/jobs?stream=1`` instead streams NDJSON span
events while the job runs, then the final result — observability as a
per-request feed, not just a post-hoc file.  The plain answer, the
stream's final event and the stdio line all come from one mapping of a
job's outcome to ``(status, doc)``.

Graceful shutdown (SIGTERM/SIGINT): stop accepting, reject queued
admissions with 503s, give in-flight jobs a bounded grace to finish
(they complete or were already degraded/quarantined by the
supervisor), then stop the loop.  The invariant the tests pin: nothing a
client does — chaos, shedding, disconnects, poison jobs — changes any
*completed* job's bytes versus a fresh serial run, because jobs are
shared-nothing and the one shared structure, the result cache, is
keyed by the full payload.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from repro.observability import FlightRecorder, Observability, TraceContext
from repro.observability.prometheus import document_samples, exposition
from repro.service.admission import AdmissionController
from repro.service.breaker import CircuitBreaker
from repro.service.config import ServiceConfig
from repro.service.engine import EngineCrashError, PromotionEngine
from repro.service.errors import (
    JobValidationError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.http import (
    NDJSON,
    HttpFront,
    _response_head,
    _send_error,
    _send_json,
    _write_line,
    _write_raw,
)
from repro.service.jobs import JobRequest

_SPAN_POLL_S = 0.05


class PromotionDaemon(HttpFront):
    """The service: composition root and job handler."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        config = config or ServiceConfig()
        super().__init__(
            config, FlightRecorder("daemon", artifacts_dir=config.artifacts_dir)
        )
        self.engine = PromotionEngine(
            workers=config.workers,
            limits=config.limits,
            result_cache_size=config.result_cache_size,
        )
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            reset_s=config.breaker_reset_s,
        )
        # Created in start() — the semaphore must bind to the running loop.
        self.admission: Optional[AdmissionController] = None
        self._heartbeat = 0.0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and arm the daemon; returns (host, port)."""
        self.admission = AdmissionController(
            capacity=self.config.workers, max_queue=self.config.max_queue
        )
        self._heartbeat = time.monotonic()
        self.flight.record("daemon.start", workers=self.config.workers)
        self._background = asyncio.ensure_future(self._watchdog())
        return await self._listen()

    async def _drain(self) -> bool:
        """Reject queued admissions, give in-flight jobs the grace, and
        shut the engine down."""
        assert self.admission is not None
        clean = await self.admission.drain(self.config.drain_grace_s)
        # A clean drain joins the (now idle) workers; never block on
        # threads that were abandoned past their deadlines.
        self.engine.shutdown(wait=clean and self.engine.abandoned == 0)
        return clean

    async def _watchdog(self) -> None:
        while True:
            self._heartbeat = time.monotonic()
            await asyncio.sleep(self.config.heartbeat_s)

    # -- the shared job path (HTTP and stdio both land here) -------------

    async def handle_job_payload(
        self, payload: object, observability=None, trace=None
    ):
        """Validate → breaker → admission → dispatch.  Returns a
        :class:`~repro.service.jobs.JobResult`; raises
        :class:`ServiceError` for every structured rejection.  ``trace``
        (or the envelope's own ``trace`` field, for headerless
        transports) stamps the result with its trace id."""
        job = JobRequest.from_payload(payload)
        trace = trace or job.trace
        deadline_s = min(
            job.deadline_s
            if job.deadline_s is not None
            else self.config.default_deadline_s,
            self.config.max_deadline_s,
        )
        if not self.breaker.allow():
            self.flight.record("admission.rejected", reason="circuit-open")
            raise ServiceUnavailableError(
                "circuit breaker is open after repeated engine failures",
                reason="circuit-open",
                retry_after_s=self.breaker.retry_after_s() or self.config.breaker_reset_s,
            )
        job_id = self.engine.next_job_id()
        assert self.admission is not None
        started = time.monotonic()
        try:
            async with self.admission.slot():
                self.flight.record("admission.accepted", job_id=job_id)
                result = await self.engine.run_job(
                    job, deadline_s, job_id, observability
                )
        except EngineCrashError:
            self.breaker.record_failure()
            raise
        except ServiceError as exc:
            self.breaker.record_neutral()
            self.flight.record(
                "job.rejected",
                job_id=job_id,
                error=type(exc).__name__,
                reason=getattr(exc, "reason", None),
            )
            raise
        else:
            self.breaker.record_success()
            self.admission.observe_duration(time.monotonic() - started)
            self.flight.record(
                "job.completed",
                job_id=job_id,
                degraded=result.degraded,
                duration_ms=result.duration_ms,
            )
            if trace is not None:
                result.trace_id = trace.trace_id
            return result

    async def _outcome(
        self, payload: object, observability=None, trace=None
    ) -> Tuple[int, Dict[str, object]]:
        """The one mapping from a job's fate to ``(status, doc)``: the
        plain HTTP answer, the NDJSON final event and the stdio line all
        come from here."""
        try:
            result = await self.handle_job_payload(payload, observability, trace)
        except ServiceError as exc:
            return exc.http_status, exc.as_dict()
        except EngineCrashError as exc:
            return 500, {"error": "engine-failure", "message": str(exc)}
        return 200, result.as_dict()

    # -- HTTP ------------------------------------------------------------

    async def _serve_job(
        self,
        writer: asyncio.StreamWriter,
        body: bytes,
        stream: bool,
        trace: Optional[TraceContext],
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await _send_error(
                writer, JobValidationError(f"request body is not valid JSON: {exc}")
            )
            return
        if stream:
            await self._run_streaming_job(writer, payload, trace)
            return
        # Non-streaming jobs stay cacheable (no observability bundle);
        # the trace id is echoed so a caller can still correlate.
        extra = {"X-Repro-Trace-Id": trace.trace_id} if trace else None
        status, doc = await self._outcome(payload, trace=trace)
        await _send_json(writer, status, doc, extra_headers=extra)

    async def _run_streaming_job(
        self,
        writer: asyncio.StreamWriter,
        payload: object,
        trace: Optional[TraceContext] = None,
    ) -> None:
        """NDJSON streaming: span events as they happen, then the final
        result (or error) as the last line.  A client that disconnects
        mid-stream stops receiving but the job runs to completion — the
        admission slot is released by the job, not the socket.

        Every streamed job runs under a distributed trace: ``trace``
        (from the caller's ``traceparent`` header) or a fresh one.  A
        ``daemon:job`` span wraps the whole dispatch so the pipeline's
        spans — including worker-process spans merged back by the
        supervisor — hang off one connected tree."""
        trace = trace or TraceContext.new()
        obs = Observability.recording(trace_id=trace.trace_id)
        await _write_raw(
            writer,
            _response_head(200, NDJSON, None, {"X-Repro-Trace-Id": trace.trace_id}),
        )

        async def _traced() -> Tuple[int, Dict[str, object]]:
            attrs: Dict[str, object] = {}
            if trace.parent_span_id:
                attrs["parent_span_id"] = trace.parent_span_id
            with obs.tracer.span("daemon:job", category="service", **attrs):
                return await self._outcome(payload, obs, trace)

        task = asyncio.ensure_future(_traced())
        sent = 0
        client_gone = False
        done = False
        while not done:
            done = task.done()
            # Drain spans *after* sampling done-ness so the records a
            # fast job appended before we noticed still stream out.
            records = obs.tracer.records
            while sent < len(records):
                line = {"event": "span"}
                line.update(records[sent].as_dict())
                sent += 1
                if not client_gone:
                    client_gone = not await _write_line(writer, line)
            if not done:
                await asyncio.wait({task}, timeout=_SPAN_POLL_S)
        status, doc = task.result()
        if status == 200:
            final: Dict[str, object] = {"event": "result"}
        else:
            final = {"event": "error", "status": status}
        final.update(doc)
        final["trace_id"] = trace.trace_id
        if not client_gone:
            await _write_line(writer, final)

    # -- health ----------------------------------------------------------

    def health(self) -> Dict[str, object]:
        now = time.monotonic()
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(now - self._started_at, 3),
            "heartbeat_age_s": round(now - self._heartbeat, 3),
            "admission": self.admission.as_dict() if self.admission else None,
            "breaker": self.breaker.as_dict(),
            "engine": self.engine.as_dict(),
            "config": self.config.as_dict(),
        }

    async def readiness(self) -> Tuple[int, Dict[str, object]]:
        """(status, body) for ``/readyz``: 200 only when the daemon is
        accepting and some pool thread is not held by an abandoned job.

        Abandoned jobs are the only way the pool wedges, and every job
        has a deadline, so a stuck thread is counted within one deadline
        of sticking; a pool that is merely busy stays ready."""
        if self._draining:
            return 503, {"ready": False, "reason": "draining"}
        if self.breaker.state == "open" and self.breaker.retry_after_s() > 0:
            return 503, {
                "ready": False,
                "reason": "circuit-open",
                "retry_after_s": round(self.breaker.retry_after_s(), 3),
            }
        if self.engine.abandoned >= self.engine.workers:
            return 503, {"ready": False, "reason": "worker-pool-wedged"}
        return 200, {"ready": True}

    def metrics_doc(self) -> Dict[str, object]:
        return {
            "admission": self.admission.as_dict() if self.admission else None,
            "breaker": self.breaker.as_dict(),
            "engine": self.engine.as_dict(),
        }

    async def prometheus_metrics(self) -> str:
        """The same counters as :meth:`metrics_doc`, rendered in
        Prometheus text exposition format (``Accept: text/plain``
        negotiation)."""
        return exposition(document_samples(self.metrics_doc(), "repro_daemon"))

    # -- stdio-JSONL -----------------------------------------------------

    async def serve_stdio(self) -> None:
        """One JSON request envelope per stdin line, one JSON response
        per stdout line: ``{"id": ..., "job": {...}}`` in,
        ``{"id": ..., "result"|"error": {...}}`` out.  Lines are
        answered as their jobs finish (not in order); EOF drains."""
        loop = asyncio.get_event_loop()
        pending = set()
        write_lock = asyncio.Lock()

        async def respond(doc: Dict[str, object]) -> None:
            async with write_lock:
                sys.stdout.write(json.dumps(doc) + "\n")
                sys.stdout.flush()

        async def one(line: str) -> None:
            try:
                envelope = json.loads(line)
            except json.JSONDecodeError as exc:
                error = JobValidationError(f"stdio line is not valid JSON: {exc}")
                await respond({"id": None, "error": error.as_dict()})
                return
            if not isinstance(envelope, dict) or "job" not in envelope:
                error = JobValidationError(
                    'stdio envelope must be {"id": ..., "job": {...}}'
                )
                await respond({"id": None, "error": error.as_dict()})
                return
            status, doc = await self._outcome(envelope["job"])
            key = "result" if status == 200 else "error"
            await respond({"id": envelope.get("id"), key: doc})

        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            if not line.strip():
                continue
            task = asyncio.ensure_future(one(line))
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.wait(pending)
        await self.drain_and_stop()


async def run_daemon(
    config: Optional[ServiceConfig] = None,
    stdio: bool = False,
    announce: Optional[Callable[[str], None]] = None,
) -> bool:
    """Build, start, and run a daemon until it drains; True when the
    drain was clean.

    ``announce`` receives the one-line ``listening on HOST:PORT``
    banner (smoke tooling parses it); HTTP always starts — stdio mode
    runs the JSONL loop alongside it.
    """
    daemon = PromotionDaemon(config)
    return await daemon.run(
        announce or (lambda line: None), daemon.serve_stdio if stdio else None
    )
