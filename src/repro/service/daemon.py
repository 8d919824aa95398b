"""Promotion-as-a-service: the long-lived asyncio daemon.

One process, one event loop, four moving parts:

* a hand-rolled HTTP/1.1 listener (``asyncio.start_server``; stdlib
  only, ``Connection: close`` per request) plus an optional
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
per-request feed, not just a post-hoc file.

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
import os
import signal
import sys
import time
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.observability import FlightRecorder, Observability, TraceContext
from repro.observability import flightrecorder as flightrecorder_mod
from repro.observability.prometheus import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
)
from repro.observability.prometheus import document_samples, exposition, wants_text
from repro.service.admission import AdmissionController
from repro.service.breaker import CircuitBreaker
from repro.service.config import ServiceConfig
from repro.service.engine import EngineCrashError, PromotionEngine
from repro.service.errors import (
    JobValidationError,
    PayloadTooLargeError,
    RequestTimeoutError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.jobs import JobRequest

_SPAN_POLL_S = 0.05
#: readuntil() buffer bound for the request head.
_HEADER_LIMIT = 65536


class PromotionDaemon:
    """The service: composition root and request router."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.engine = PromotionEngine(
            workers=self.config.workers,
            limits=self.config.limits,
            result_cache_size=self.config.result_cache_size,
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            reset_s=self.config.breaker_reset_s,
        )
        # Created in start() — the semaphore must bind to the running loop.
        self.admission: Optional[AdmissionController] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._heartbeat = 0.0
        self._started_at = 0.0
        self._watchdog_task: Optional[asyncio.Task] = None
        self._done: Optional[asyncio.Event] = None
        self._draining = False
        self.drained_clean: Optional[bool] = None
        #: The crash flight recorder: a bounded ring of recent service
        #: events, dumped to ``config.artifacts_dir`` on engine crash,
        #: breaker trip, quarantine, or SIGTERM drain.
        self.flight = FlightRecorder(
            "daemon", artifacts_dir=self.config.artifacts_dir
        )

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and arm the daemon; returns (host, port)."""
        self.admission = AdmissionController(
            capacity=self.config.workers, max_queue=self.config.max_queue
        )
        self._done = asyncio.Event()
        self._started_at = time.monotonic()
        self._heartbeat = self._started_at
        # Ambient install lets deep modules (engine, breaker, supervisor)
        # record into the daemon's ring without plumbing.
        flightrecorder_mod.install(self.flight)
        self.flight.record("daemon.start", workers=self.config.workers)
        self._watchdog_task = asyncio.ensure_future(self._watchdog())
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=_HEADER_LIMIT,
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain.

        Deliberately ``signal.signal``, not ``loop.add_signal_handler``:
        the loop variant registers a C-level handler that writes into a
        wakeup pipe, and resilient promotion jobs *fork* a supervised
        worker process that inherits both.  A signal delivered to that
        worker would write into the shared pipe and the daemon's loop
        would read it as its own shutdown signal.  The pid guard gives
        forked children back the default disposition and re-delivers,
        so the worker still dies of the signal."""
        loop = asyncio.get_event_loop()
        owner_pid = os.getpid()

        def _on_signal(signum: int, frame: object) -> None:
            if os.getpid() != owner_pid:
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)
                return
            loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.drain_and_stop())
            )

        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, _on_signal)

    async def serve_forever(self) -> None:
        assert self._done is not None
        await self._done.wait()

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, stop."""
        if self._draining:
            return
        self._draining = True
        self.flight.record("daemon.drain", uptime_s=time.monotonic() - self._started_at)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self.admission is not None
        self.drained_clean = await self.admission.drain(self.config.drain_grace_s)
        # A clean drain joins the (now idle) workers; never block on
        # threads that were abandoned past their deadlines.
        self.engine.shutdown(
            wait=bool(self.drained_clean) and self.engine.abandoned == 0
        )
        self.flight.dump("sigterm-drain")
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
        if self._done is not None:
            self._done.set()

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

    # -- HTTP ------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-conversation; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=self.config.header_timeout_s
            )
        except asyncio.TimeoutError:
            await self._send_error(
                writer, RequestTimeoutError("request head did not arrive in time")
            )
            return
        except asyncio.LimitOverrunError:
            await self._send_error(
                writer, JobValidationError("request head exceeds the size limit")
            )
            return
        except (asyncio.IncompleteReadError, ConnectionError):
            return  # dropped connection before a full request head

        try:
            method, target, headers = _parse_head(head)
        except ValueError as exc:
            await self._send_error(writer, JobValidationError(str(exc)))
            return

        parts = urlsplit(target)
        path = parts.path
        query = parse_qs(parts.query)

        if method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, self.health())
            return
        if method == "GET" and path == "/readyz":
            status, body = await self.readiness()
            await self._send_json(writer, status, body)
            return
        if method == "GET" and path == "/metrics":
            if wants_text(headers.get("accept")):
                await self._send_text(
                    writer, 200, self.prometheus_metrics(), PROMETHEUS_CONTENT_TYPE
                )
            else:
                await self._send_json(writer, 200, self.metrics())
            return
        if method != "POST" or path != "/v1/jobs":
            await self._send_json(
                writer,
                404,
                {"error": "not-found", "message": f"no route for {method} {path}"},
            )
            return

        try:
            payload = await self._read_body(reader, headers)
        except ServiceError as exc:
            await self._send_error(writer, exc)
            return

        trace = TraceContext.from_traceparent(headers.get("traceparent"))
        stream = query.get("stream", ["0"])[-1] not in ("0", "", "false")
        if stream:
            await self._run_streaming_job(writer, payload, trace)
        else:
            # Non-streaming jobs stay cacheable (no observability bundle);
            # the trace id is echoed so a caller can still correlate.
            extra = {"X-Repro-Trace-Id": trace.trace_id} if trace else None
            try:
                result = await self.handle_job_payload(payload, trace=trace)
            except ServiceError as exc:
                await self._send_json(
                    writer, exc.http_status, exc.as_dict(), extra_headers=extra
                )
            except EngineCrashError as exc:
                await self._send_json(
                    writer,
                    500,
                    {"error": "engine-failure", "message": str(exc)},
                    extra_headers=extra,
                )
            else:
                await self._send_json(
                    writer, 200, result.as_dict(), extra_headers=extra
                )

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> object:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise JobValidationError("content-length is not an integer") from None
        if length < 0:
            raise JobValidationError("content-length is negative")
        if length > self.config.max_body_bytes:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit"
            )
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=self.config.body_timeout_s
            )
        except asyncio.TimeoutError:
            raise RequestTimeoutError(
                f"request body did not arrive within "
                f"{self.config.body_timeout_s:g}s"
            ) from None
        except asyncio.IncompleteReadError:
            raise JobValidationError(
                "connection closed before the declared body arrived"
            ) from None
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobValidationError(f"request body is not valid JSON: {exc}") from None

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
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                f"X-Repro-Trace-Id: {trace.trace_id}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii"),
        )

        async def _traced() -> object:
            attrs: Dict[str, object] = {}
            if trace.parent_span_id:
                attrs["parent_span_id"] = trace.parent_span_id
            with obs.tracer.span("daemon:job", category="service", **attrs):
                return await self.handle_job_payload(payload, obs, trace=trace)

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
        try:
            result = task.result()
        except ServiceError as exc:
            final = {"event": "error", "status": exc.http_status}
            final.update(exc.as_dict())
        except EngineCrashError as exc:
            final = {
                "event": "error",
                "status": 500,
                "error": "engine-failure",
                "message": str(exc),
            }
        else:
            final = {"event": "result"}
            final.update(result.as_dict())
        final["trace_id"] = trace.trace_id
        if not client_gone:
            await _write_line(writer, final)

    async def _send_error(
        self, writer: asyncio.StreamWriter, error: ServiceError
    ) -> None:
        await self._send_json(writer, error.http_status, error.as_dict())

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Dict[str, object],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        await self._send_body(
            writer, status, payload, "application/json", extra_headers
        )

    async def _send_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        await self._send_body(
            writer, status, text.encode("utf-8"), content_type, extra_headers
        )

    async def _send_body(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        await _write_raw(writer, head + payload)

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
        accepting and the pool answers a live probe."""
        if self._draining:
            return 503, {"ready": False, "reason": "draining"}
        if self.breaker.state == "open" and self.breaker.retry_after_s() > 0:
            return 503, {
                "ready": False,
                "reason": "circuit-open",
                "retry_after_s": round(self.breaker.retry_after_s(), 3),
            }
        alive = await self.engine.probe(timeout_s=self.config.heartbeat_s * 4)
        if not alive:
            return 503, {"ready": False, "reason": "worker-pool-wedged"}
        return 200, {"ready": True}

    def metrics(self) -> Dict[str, object]:
        return {
            "admission": self.admission.as_dict() if self.admission else None,
            "breaker": self.breaker.as_dict(),
            "engine": self.engine.as_dict(),
        }

    def prometheus_metrics(self) -> str:
        """The same counters as :meth:`metrics`, rendered in Prometheus
        text exposition format (``Accept: text/plain`` negotiation)."""
        return exposition(document_samples(self.metrics(), "repro_daemon"))

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
            envelope_id: object = None
            try:
                envelope = json.loads(line)
                if not isinstance(envelope, dict) or "job" not in envelope:
                    raise JobValidationError(
                        'stdio envelope must be {"id": ..., "job": {...}}'
                    )
                envelope_id = envelope.get("id")
                result = await self.handle_job_payload(envelope["job"])
            except json.JSONDecodeError as exc:
                await respond(
                    {
                        "id": envelope_id,
                        "error": JobValidationError(
                            f"stdio line is not valid JSON: {exc}"
                        ).as_dict(),
                    }
                )
            except ServiceError as exc:
                await respond({"id": envelope_id, "error": exc.as_dict()})
            except EngineCrashError as exc:
                await respond(
                    {
                        "id": envelope_id,
                        "error": {"error": "engine-failure", "message": str(exc)},
                    }
                )
            else:
                await respond({"id": envelope_id, "result": result.as_dict()})

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


# -- module helpers -------------------------------------------------------

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes anything
        raise ValueError("request head is not decodable")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target = parts[0], parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, target, headers


async def _write_raw(writer: asyncio.StreamWriter, data: bytes) -> bool:
    """Best-effort write; False means the client is gone."""
    try:
        writer.write(data)
        await writer.drain()
    except (ConnectionError, OSError):
        return False
    return True


async def _write_line(writer: asyncio.StreamWriter, doc: Dict[str, object]) -> bool:
    return await _write_raw(writer, (json.dumps(doc) + "\n").encode("utf-8"))


async def run_daemon(
    config: Optional[ServiceConfig] = None,
    stdio: bool = False,
    announce: Optional[Callable[[str], None]] = None,
) -> None:
    """Build, start, and run a daemon until it drains.

    ``announce`` receives the one-line ``listening on HOST:PORT``
    banner (smoke tooling parses it); HTTP always starts — stdio mode
    runs the JSONL loop alongside it.
    """
    daemon = PromotionDaemon(config)
    host, port = await daemon.start()
    daemon.install_signal_handlers()
    if announce is not None:
        announce(f"listening on {host}:{port}")
    if stdio:
        await daemon.serve_stdio()
    else:
        await daemon.serve_forever()
