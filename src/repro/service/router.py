"""The front tier: a fingerprint-sticky router over many daemons.

``repro-route`` scales the service horizontally: it speaks the same
HTTP/1.1 job protocol as :mod:`repro.service.daemon` and fans out to N
backend ``repro-serve`` instances.  Each daemon owns a result cache
whose value comes entirely from seeing the same programs again — so
the router keys placement on the **module fingerprint** of the
submitted source
(:mod:`repro.service.routing`) and the same program always lands on the
same shard while it is healthy.

Moving parts:

* **Sticky routing with deterministic failover** —
  :func:`~repro.service.routing.hrw_order` turns (fingerprint, backend
  ids) into a total order; element 0 is the home shard, the tail is the
  failover sequence every router instance agrees on without
  coordination.
* **Health-based draining** — :class:`HealthTracker` polls each
  backend's ``/healthz`` and ``/readyz`` and walks instances through
  ``healthy → draining → down``.  A draining backend receives no new
  jobs but keeps its in-flight relays — the daemon's own graceful-drain
  machinery finishes them — and a backend that answers healthy again
  (rolling restart) is routed to again.
* **Per-backend circuit breakers and bounded retry-with-failover** —
  connect errors and 5xx responses fail over to the next backend in HRW
  order (each backend tried at most once per job); 429 shed responses
  are propagated to the client with their ``retry_after_s`` hint intact,
  because the shard's own load estimate is the honest one.

  *Idempotency contract*: a retry re-sends the **complete buffered
  envelope**, byte-for-byte.  Jobs are pure functions of that envelope
  — the daemon's byte-identity invariant guarantees a re-run returns
  the same result and mutates no cross-request state — so failing over
  a job that may already have started on a dying backend is safe.  The
  router asserts the precondition (the whole body is in hand before the
  first attempt) and never fails over a *streaming* job once a single
  response byte has been relayed, so a client can never observe two
  interleaved timelines.
* **Router-level observability** — ``/healthz``, ``/readyz``, and
  ``/metrics`` export ``router.*`` counters (per-backend jobs,
  failovers, drain/down/circuit skips, stickiness hit-rate) through the
  shared :class:`~repro.observability.metrics.MetricsRegistry`, and
  ``POST /v1/jobs?stream=1`` is a byte-level NDJSON pass-through so a
  streamed job keeps a single span timeline end to end.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability import FlightRecorder, TraceContext
from repro.observability import flightrecorder as flightrecorder_mod
from repro.observability.metrics import MetricsRegistry
from repro.observability.prometheus import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
)
from repro.observability.prometheus import (
    Sample,
    document_samples,
    exposition,
    registry_samples,
    wants_text,
)
from repro.service.breaker import CircuitBreaker
from repro.service.client import read_response, send_request
from repro.service.daemon import _REASONS, _parse_head, _write_raw
from repro.service.errors import (
    JobValidationError,
    PayloadTooLargeError,
    RequestTimeoutError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.routing import KEY_MODULE, FingerprintResolver, hrw_order

_HEADER_LIMIT = 65536

HEALTHY = "healthy"
DRAINING = "draining"
DOWN = "down"


class RouterConfig:
    """Tunables for :class:`PromotionRouter`.

    ``backends`` is the static shard list — (host, port) pairs, at
    least one.  ``poll_interval_s``/``probe_timeout_s`` drive the
    health tracker; ``down_after`` consecutive probe strikes (connect
    failures or not-ready answers) mark a backend ``down``.
    ``connect_timeout_s`` bounds each dispatch connect;
    ``upstream_timeout_s`` bounds reading a backend's response (jobs
    already carry their own deadlines, clamped by the daemon).
    Breaker/drain/slow-loris knobs mirror
    :class:`~repro.service.config.ServiceConfig`.
    """

    def __init__(
        self,
        backends: Sequence[Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval_s: float = 2.0,
        probe_timeout_s: float = 2.0,
        down_after: int = 2,
        connect_timeout_s: float = 2.0,
        upstream_timeout_s: float = 180.0,
        header_timeout_s: float = 5.0,
        body_timeout_s: float = 10.0,
        max_body_bytes: int = 2_500_000,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 5.0,
        drain_grace_s: float = 10.0,
        fingerprint_cache_size: int = 256,
        artifacts_dir: Optional[str] = None,
    ) -> None:
        backends = list(backends)
        if not backends:
            raise ValueError("at least one backend is required")
        ids = [f"{h}:{p}" for h, p in backends]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate backends in {ids}")
        if down_after < 1:
            raise ValueError(f"down_after must be >= 1, got {down_after}")
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        for name, value in (
            ("poll_interval_s", poll_interval_s),
            ("probe_timeout_s", probe_timeout_s),
            ("connect_timeout_s", connect_timeout_s),
            ("upstream_timeout_s", upstream_timeout_s),
            ("header_timeout_s", header_timeout_s),
            ("body_timeout_s", body_timeout_s),
            ("breaker_reset_s", breaker_reset_s),
            ("drain_grace_s", drain_grace_s),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        if fingerprint_cache_size < 0:
            raise ValueError(
                f"fingerprint_cache_size must be >= 0, got {fingerprint_cache_size}"
            )
        self.backends = backends
        self.host = host
        self.port = port
        self.poll_interval_s = poll_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.down_after = down_after
        self.connect_timeout_s = connect_timeout_s
        self.upstream_timeout_s = upstream_timeout_s
        self.header_timeout_s = header_timeout_s
        self.body_timeout_s = body_timeout_s
        self.max_body_bytes = max_body_bytes
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.drain_grace_s = drain_grace_s
        self.fingerprint_cache_size = fingerprint_cache_size
        #: Flight-recorder dump directory (crash/drain forensics);
        #: ``None`` keeps the ring memory-only.
        self.artifacts_dir = artifacts_dir

    def as_dict(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "port": self.port,
            "backends": [f"{h}:{p}" for h, p in self.backends],
            "poll_interval_s": self.poll_interval_s,
            "probe_timeout_s": self.probe_timeout_s,
            "down_after": self.down_after,
            "connect_timeout_s": self.connect_timeout_s,
            "upstream_timeout_s": self.upstream_timeout_s,
            "header_timeout_s": self.header_timeout_s,
            "body_timeout_s": self.body_timeout_s,
            "max_body_bytes": self.max_body_bytes,
            "breaker_threshold": self.breaker_threshold,
            "breaker_reset_s": self.breaker_reset_s,
            "drain_grace_s": self.drain_grace_s,
            "fingerprint_cache_size": self.fingerprint_cache_size,
            "artifacts_dir": self.artifacts_dir,
        }


class BackendState:
    """One shard as the router sees it: address, health status, breaker,
    and per-backend accounting."""

    def __init__(
        self, host: str, port: int, breaker_threshold: int, breaker_reset_s: float
    ) -> None:
        self.host = host
        self.port = port
        self.id = f"{host}:{port}"
        # Optimistic start: jobs flow before the first poll completes;
        # a dead backend costs one connect failure, which the failover
        # path absorbs.
        self.status = HEALTHY
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, reset_s=breaker_reset_s
        )
        self.strikes = 0
        self.transitions = 0
        self.jobs_total = 0
        self.failures_total = 0
        self.last_probe_error: Optional[str] = None

    def set_status(self, status: str) -> bool:
        """Move to ``status``; True if this is a transition."""
        if status == self.status:
            return False
        self.status = status
        self.transitions += 1
        return True

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "status": self.status,
            "strikes": self.strikes,
            "transitions": self.transitions,
            "jobs_total": self.jobs_total,
            "failures_total": self.failures_total,
            "breaker": self.breaker.as_dict(),
            "last_probe_error": self.last_probe_error,
        }


class HealthTracker:
    """Drives ``healthy → draining → down`` (and back) from probes.

    One :meth:`poll_once` probes every backend concurrently:
    ``/healthz`` for the status word, ``/readyz`` for admission
    readiness.  ``draining`` is immediate
    (the daemon said so — stop sending new work *now* so its grace
    window is spent on in-flight jobs, not on fresh arrivals); ``down``
    needs ``down_after`` consecutive strikes so one dropped probe does
    not evict a healthy shard; any healthy answer fully rehabilitates a
    backend.  Dispatch-time connect failures feed the same strike
    counter via :meth:`note_connect_failure`, so a crashed backend goes
    dark even between polls.
    """

    def __init__(
        self,
        backends: Dict[str, BackendState],
        down_after: int = 2,
        probe_timeout_s: float = 2.0,
    ) -> None:
        self.backends = backends
        self.down_after = down_after
        self.probe_timeout_s = probe_timeout_s
        self.transitions_total = 0
        self.polls_total = 0

    # -- evidence --------------------------------------------------------

    def apply_probe(
        self,
        state: BackendState,
        health: Optional[Dict[str, object]],
        ready_status: Optional[int],
        ready_doc: Optional[Dict[str, object]],
        error: Optional[str] = None,
    ) -> None:
        """Fold one probe's outcome into the state machine."""
        state.last_probe_error = error
        if error is not None:
            self._strike(state)
            return
        reason = (ready_doc or {}).get("reason") if ready_status != 200 else None
        drains = (
            isinstance(health, dict) and health.get("status") == "draining"
        ) or reason == "draining"
        if drains:
            state.strikes = 0
            if state.set_status(DRAINING):
                self.transitions_total += 1
            return
        if ready_status == 200:
            state.strikes = 0
            if state.set_status(HEALTHY):
                self.transitions_total += 1
            return
        # Alive but not ready (circuit open, pool wedged): strikes, so a
        # transient blip survives but a stuck shard goes dark.
        self._strike(state)

    def note_connect_failure(self, state: BackendState) -> None:
        self._strike(state)

    def note_draining(self, state: BackendState) -> None:
        """A dispatch came back 503/draining before the poller noticed."""
        if state.set_status(DRAINING):
            self.transitions_total += 1

    def _strike(self, state: BackendState) -> None:
        state.strikes += 1
        if state.strikes >= self.down_after and state.set_status(DOWN):
            self.transitions_total += 1
            flightrecorder_mod.ambient().record(
                "router.backend_down",
                backend=state.id,
                strikes=state.strikes,
                error=state.last_probe_error,
            )

    # -- polling ---------------------------------------------------------

    async def poll_once(self) -> None:
        self.polls_total += 1
        await asyncio.gather(
            *(self._probe(state) for state in self.backends.values())
        )

    async def _probe(self, state: BackendState) -> None:
        from repro.service.client import ServiceClient

        client = ServiceClient(state.host, state.port, timeout_s=self.probe_timeout_s)
        try:
            health_resp = await client.get("/healthz")
            ready_resp = await client.get("/readyz")
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
            self.apply_probe(state, None, None, None, error=type(exc).__name__)
            return
        except Exception as exc:  # noqa: BLE001 - a probe must never kill the loop
            self.apply_probe(state, None, None, None, error=type(exc).__name__)
            return
        health = _json_or_none(health_resp.body)
        ready = _json_or_none(ready_resp.body)
        self.apply_probe(
            state,
            health if isinstance(health, dict) else None,
            ready_resp.status,
            ready if isinstance(ready, dict) else None,
        )

    def counts(self) -> Dict[str, int]:
        doc = {HEALTHY: 0, DRAINING: 0, DOWN: 0}
        for state in self.backends.values():
            doc[state.status] += 1
        return doc


class PromotionRouter:
    """The asyncio front tier: listener, health poller, relay engine."""

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.backends: Dict[str, BackendState] = {}
        for host, port in config.backends:
            state = BackendState(
                host, port, config.breaker_threshold, config.breaker_reset_s
            )
            self.backends[state.id] = state
        self.backend_ids = list(self.backends)
        self.tracker = HealthTracker(
            self.backends,
            down_after=config.down_after,
            probe_timeout_s=config.probe_timeout_s,
        )
        self.resolver = FingerprintResolver(
            cache_size=config.fingerprint_cache_size
        )
        self.metrics = MetricsRegistry()
        self._server: Optional[asyncio.AbstractServer] = None
        self._poller_task: Optional[asyncio.Task] = None
        self._done: Optional[asyncio.Event] = None
        self._draining = False
        self._started_at = 0.0
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self.drained_clean: Optional[bool] = None
        #: Crash flight recorder: routing decisions, failovers, and
        #: backend transitions, dumped on drain or breaker trip.
        self.flight = FlightRecorder(
            "router", artifacts_dir=config.artifacts_dir
        )

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        self._done = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._started_at = time.monotonic()
        # Backend breakers (repro.service.breaker) record their trips
        # into whatever recorder is ambient — make it this router's.
        flightrecorder_mod.install(self.flight)
        self.flight.record("router.start", backends=list(self.backend_ids))
        self._poller_task = asyncio.ensure_future(self._poll_loop())
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
        loop = asyncio.get_event_loop()

        def _on_signal(signum: int, frame: object) -> None:
            loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.drain_and_stop())
            )

        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, _on_signal)

    async def serve_forever(self) -> None:
        assert self._done is not None
        await self._done.wait()

    async def drain_and_stop(self) -> None:
        """Stop accepting, let in-flight relays finish (bounded by the
        grace period), stop the poller."""
        if self._draining:
            return
        self._draining = True
        self.flight.record(
            "router.drain", uptime_s=time.monotonic() - self._started_at
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._idle is not None
        if self._inflight:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.config.drain_grace_s
                )
                self.drained_clean = True
            except asyncio.TimeoutError:
                self.drained_clean = False
        else:
            self.drained_clean = True
        self.flight.dump("sigterm-drain")
        if self._poller_task is not None:
            self._poller_task.cancel()
        if self._done is not None:
            self._done.set()

    async def _poll_loop(self) -> None:
        while True:
            try:
                await self.tracker.poll_once()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - polling must never die
                pass
            self.metrics.set(
                "router.health.transitions", self.tracker.transitions_total
            )
            await asyncio.sleep(self.config.poll_interval_s)

    # -- routing ---------------------------------------------------------

    def plan(self, payload: object) -> Tuple[str, str, List[str]]:
        """(key, key_kind, HRW backend order) for a decoded payload —
        the pure routing decision, exposed for ``--print-plan``."""
        key, key_kind = self.resolver.resolve(payload)
        return key, key_kind, hrw_order(key, self.backend_ids)

    def _routable_reason(self, state: BackendState) -> Optional[str]:
        """None when the backend may receive a new job, else the skip
        reason.  Checking the breaker *admits* a half-open probe, so
        only call when a dispatch follows immediately."""
        if state.status == DRAINING:
            return "draining"
        if state.status == DOWN:
            return "down"
        if not state.breaker.allow():
            return "circuit"
        return None

    # -- connection handling --------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._inflight += 1
        assert self._idle is not None
        self._idle.clear()
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
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
                reader.readuntil(b"\r\n\r\n"),
                timeout=self.config.header_timeout_s,
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
            return

        try:
            method, target, headers = _parse_head(head)
        except ValueError as exc:
            await self._send_error(writer, JobValidationError(str(exc)))
            return

        path, _, query = target.partition("?")
        if method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, self.health())
            return
        if method == "GET" and path == "/readyz":
            status, body = self.readiness()
            await self._send_json(writer, status, body)
            return
        if method == "GET" and path == "/metrics":
            if wants_text(headers.get("accept")):
                await self._send_text(
                    writer,
                    200,
                    await self.prometheus_metrics(),
                    PROMETHEUS_CONTENT_TYPE,
                )
            else:
                await self._send_json(writer, 200, self.metrics_doc())
            return
        if method != "POST" or path != "/v1/jobs":
            await self._send_json(
                writer,
                404,
                {"error": "not-found", "message": f"no route for {method} {path}"},
            )
            return

        try:
            body = await self._read_body(reader, headers)
        except ServiceError as exc:
            await self._send_error(writer, exc)
            return

        stream = False
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == "stream" and value not in ("0", "", "false"):
                stream = True
        # Adopt the caller's distributed trace or start one at the edge;
        # every backend leg carries it as a ``traceparent`` header.
        trace = TraceContext.from_traceparent(headers.get("traceparent"))
        await self._route_job(writer, body, stream, trace or TraceContext.new())

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> bytes:
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
            return await asyncio.wait_for(
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

    # -- the relay engine ------------------------------------------------

    async def _route_job(
        self,
        writer: asyncio.StreamWriter,
        body: bytes,
        stream: bool,
        trace: TraceContext,
    ) -> None:
        # Idempotency precondition: every attempt re-sends this exact
        # buffered envelope, so failover can never split a job across
        # two half-delivered requests.
        assert body is not None
        payload = _json_or_none(body)
        loop = asyncio.get_event_loop()
        key, key_kind, order = await loop.run_in_executor(
            None, self.plan, payload
        )
        # The router's hop in the trace: each backend leg is a child of
        # this span id, so the daemon's ``daemon:job`` span hangs off it.
        hop = trace.child()
        self.flight.record(
            "router.job",
            trace_id=trace.trace_id,
            key=key,
            key_kind=key_kind,
            home=order[0],
            stream=stream,
        )
        self.metrics.inc("router.jobs_total")
        if stream:
            self.metrics.inc("router.jobs.stream")
        if key_kind == KEY_MODULE:
            self.metrics.inc("router.fingerprint.modules")
        else:
            self.metrics.inc("router.fingerprint.fallbacks")

        attempts = 0
        last_error: Optional[Tuple[int, Dict[str, object]]] = None
        for backend_id in order:
            state = self.backends[backend_id]
            reason = self._routable_reason(state)
            if reason is not None:
                self.metrics.inc(f"router.skips.{reason}")
                continue
            attempts += 1
            if attempts > 1:
                self.metrics.inc("router.failovers")
                self.flight.record(
                    "router.failover",
                    trace_id=trace.trace_id,
                    backend=backend_id,
                    attempt=attempts,
                )
            outcome, last_error = await self._attempt(
                writer, state, body, stream, last_error, trace, hop
            )
            if outcome == "served":
                self.metrics.inc("router.sticky.routed")
                if backend_id == order[0]:
                    self.metrics.inc("router.sticky.hits")
                return
            # "failed": fall through to the next backend in HRW order.
        self.metrics.inc("router.jobs.unrouted")
        self.flight.record("router.unrouted", trace_id=trace.trace_id, key=key)
        if last_error is not None:
            # Every backend was tried and the last wire answer was an
            # error document: relay it rather than masking the cause.
            await self._send_json(writer, last_error[0], last_error[1])
            return
        await self._send_error(
            writer,
            ServiceUnavailableError(
                "no healthy backend is available for this job",
                reason="no-backend",
                retry_after_s=self.config.poll_interval_s,
            ),
        )

    async def _attempt(
        self,
        writer: asyncio.StreamWriter,
        state: BackendState,
        body: bytes,
        stream: bool,
        last_error: Optional[Tuple[int, Dict[str, object]]],
        trace: TraceContext,
        hop: TraceContext,
    ) -> Tuple[str, Optional[Tuple[int, Dict[str, object]]]]:
        """One dispatch to one backend.  Returns ("served"|"failed",
        last_error); "served" means a response reached the client (or
        streaming bytes started flowing, after which failover is off
        the table)."""
        if stream:
            outcome = await self._relay_stream(writer, state, body, trace, hop)
            if outcome == "relayed":
                state.jobs_total += 1
                state.breaker.record_success()
                self.metrics.inc(f"router.backend.{state.id}.jobs")
                return "served", last_error
            state.failures_total += 1
            self.tracker.note_connect_failure(state)
            state.breaker.record_failure()
            return "failed", last_error

        try:
            response = await self._forward(state, body, hop)
        except Exception:  # noqa: BLE001 - connect/read trouble: fail over
            state.failures_total += 1
            self.tracker.note_connect_failure(state)
            state.breaker.record_failure()
            return "failed", last_error

        doc = _json_or_none(response.body)
        doc = doc if isinstance(doc, dict) else {"error": "upstream-error"}
        if response.status == 503 and doc.get("reason") == "draining":
            # The backend is leaving; reroute this job and stop feeding
            # the shard before the next poll even runs.
            self.tracker.note_draining(state)
            self.metrics.inc("router.drains.observed")
            return "failed", (response.status, doc)
        if response.status >= 500:
            state.failures_total += 1
            state.breaker.record_failure()
            return "failed", (response.status, doc)

        # 2xx/4xx/429 reach the client as-is: 4xx is the client's fault
        # and 429 carries the shard's own honest retry-after hint.
        state.jobs_total += 1
        if response.status < 400:
            state.breaker.record_success()
            self.metrics.inc("router.jobs.relayed")
        else:
            state.breaker.record_neutral()
            self.metrics.inc("router.jobs.rejected")
        self.metrics.inc(f"router.backend.{state.id}.jobs")
        await self._relay_response(writer, response, state.id, trace)
        return "served", last_error

    async def _forward(
        self, state: BackendState, body: bytes, hop: TraceContext
    ):
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(state.host, state.port),
            timeout=self.config.connect_timeout_s,
        )
        try:
            await send_request(
                writer,
                "POST",
                "/v1/jobs",
                body,
                headers={"traceparent": hop.to_traceparent()},
            )
            return await asyncio.wait_for(
                read_response(reader), timeout=self.config.upstream_timeout_s
            )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _relay_stream(
        self,
        writer: asyncio.StreamWriter,
        state: BackendState,
        body: bytes,
        trace: TraceContext,
        hop: TraceContext,
    ) -> str:
        """Byte-level NDJSON pass-through.  Returns "relayed" once any
        upstream byte reached (or was offered to) the client — from that
        point failover is forbidden, a second backend would fork the
        span timeline — or "connect-failed" when the backend never
        produced a response head.

        The relayed head gains an ``X-Repro-Backend`` attribution
        header, and the first NDJSON line the client sees is the
        router's own ``router:relay`` span — same ``trace_id`` as every
        span the backend streams after it, so the whole hop is one
        connected tree."""
        try:
            up_reader, up_writer = await asyncio.wait_for(
                asyncio.open_connection(state.host, state.port),
                timeout=self.config.connect_timeout_s,
            )
        except (OSError, asyncio.TimeoutError):
            return "connect-failed"
        started_s = time.time()
        try:
            try:
                await send_request(
                    up_writer,
                    "POST",
                    "/v1/jobs?stream=1",
                    body,
                    headers={"traceparent": hop.to_traceparent()},
                )
                head = await asyncio.wait_for(
                    up_reader.readuntil(b"\r\n\r\n"),
                    timeout=self.config.upstream_timeout_s,
                )
            except (
                OSError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
            ):
                return "connect-failed"
            head = (
                head[:-2]
                + f"X-Repro-Backend: {state.id}\r\n\r\n".encode("ascii")
            )
            client_ok = await _write_raw(writer, head)
            if client_ok:
                client_ok = await _write_raw(
                    writer, _router_span_line(trace, hop, state.id, started_s)
                )
            while True:
                try:
                    chunk = await asyncio.wait_for(
                        up_reader.read(8192),
                        timeout=self.config.upstream_timeout_s,
                    )
                except (OSError, asyncio.TimeoutError):
                    break
                if not chunk:
                    break
                if client_ok:
                    # A vanished client stops receiving, but keep
                    # draining upstream so the backend's job/slot
                    # lifecycle is undisturbed (same semantics as the
                    # daemon's own streaming path).
                    client_ok = await _write_raw(writer, chunk)
            return "relayed"
        finally:
            up_writer.close()
            try:
                await up_writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _relay_response(
        self,
        writer: asyncio.StreamWriter,
        response,
        backend_id: str,
        trace: TraceContext,
    ) -> None:
        head = (
            f"HTTP/1.1 {response.status} "
            f"{_REASONS.get(response.status, 'Status')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            f"X-Repro-Backend: {backend_id}\r\n"
            f"X-Repro-Trace-Id: {trace.trace_id}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        await _write_raw(writer, head + response.body)

    # -- introspection ---------------------------------------------------

    def health(self) -> Dict[str, object]:
        now = time.monotonic()
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(now - self._started_at, 3),
            "backend_counts": self.tracker.counts(),
            "backends": {
                backend_id: state.as_dict()
                for backend_id, state in self.backends.items()
            },
            "config": self.config.as_dict(),
        }

    def readiness(self) -> Tuple[int, Dict[str, object]]:
        if self._draining:
            return 503, {"ready": False, "reason": "draining"}
        counts = self.tracker.counts()
        if counts[HEALTHY] == 0:
            return 503, {
                "ready": False,
                "reason": "no-healthy-backend",
                "backend_counts": counts,
            }
        return 200, {"ready": True, "backend_counts": counts}

    def stickiness_hit_rate(self) -> Optional[float]:
        routed = self.metrics.value("router.sticky.routed") or 0
        if not routed:
            return None
        hits = self.metrics.value("router.sticky.hits") or 0
        return hits / routed

    def metrics_doc(self) -> Dict[str, object]:
        fingerprint = self.resolver.counters()
        self.metrics.set("router.fingerprint.cache_hits", fingerprint["cache_hits"])
        self.metrics.set("router.fingerprint.compiled", fingerprint["compiled"])
        self.metrics.set("router.backends.healthy", self.tracker.counts()[HEALTHY])
        self.metrics.set("router.backends.draining", self.tracker.counts()[DRAINING])
        self.metrics.set("router.backends.down", self.tracker.counts()[DOWN])
        rate = self.stickiness_hit_rate()
        return {
            "router": self.metrics.as_dict(),
            "stickiness_hit_rate": None if rate is None else round(rate, 4),
            "backends": {
                backend_id: state.as_dict()
                for backend_id, state in self.backends.items()
            },
        }

    async def prometheus_metrics(self) -> str:
        """The cluster view in Prometheus text exposition: the router's
        own counters plus every live backend's ``/metrics`` scrape,
        re-exported under ``repro_daemon_*`` with a ``backend`` label."""
        self.metrics_doc()  # refresh the derived gauges
        samples = registry_samples(self.metrics.as_dict(), namespace="repro")
        rate = self.stickiness_hit_rate()
        if rate is not None:
            samples.append(
                Sample("repro_router_stickiness_hit_rate", "gauge", rate)
            )
        for backend_id, state in self.backends.items():
            labels = {"backend": backend_id}
            samples.append(
                Sample(
                    "repro_router_backend_status",
                    "gauge",
                    1.0,
                    {**labels, "status": state.status},
                )
            )
            samples.append(
                Sample(
                    "repro_router_backend_breaker_state",
                    "gauge",
                    1.0,
                    {**labels, "state": state.breaker.state},
                )
            )
            samples.append(
                Sample(
                    "repro_router_backend_jobs_total",
                    "counter",
                    float(state.jobs_total),
                    labels,
                )
            )
            samples.append(
                Sample(
                    "repro_router_backend_failures_total",
                    "counter",
                    float(state.failures_total),
                    labels,
                )
            )
        scrapes = await asyncio.gather(
            *(self._scrape_metrics(state) for state in self.backends.values())
        )
        for state, doc in zip(self.backends.values(), scrapes):
            if isinstance(doc, dict):
                samples.extend(
                    document_samples(
                        doc, "repro_daemon", labels={"backend": state.id}
                    )
                )
        return exposition(samples)

    async def _scrape_metrics(self, state: BackendState) -> Optional[Dict[str, object]]:
        """One backend's JSON ``/metrics``, or None when it is down or
        the scrape fails — the cluster view must stay servable while a
        shard is not."""
        if state.status == DOWN:
            return None
        from repro.service.client import ServiceClient

        client = ServiceClient(
            state.host, state.port, timeout_s=self.config.probe_timeout_s
        )
        try:
            response = await client.get("/metrics")
        except Exception:  # noqa: BLE001 - a scrape must never break /metrics
            return None
        doc = _json_or_none(response.body)
        return doc if isinstance(doc, dict) else None

    # -- plumbing --------------------------------------------------------

    async def _send_error(
        self, writer: asyncio.StreamWriter, error: ServiceError
    ) -> None:
        await self._send_json(writer, error.http_status, error.as_dict())

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, body: Dict[str, object]
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        await _write_raw(writer, head + payload)

    async def _send_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        content_type: str,
    ) -> None:
        payload = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        await _write_raw(writer, head + payload)


def _router_span_line(
    trace: TraceContext, hop: TraceContext, backend_id: str, started_s: float
) -> bytes:
    """The router's own span as one NDJSON event, shaped like the
    daemon's streamed :class:`~repro.observability.tracer.SpanRecord`
    lines so stream consumers handle both uniformly.  It is emitted as
    soon as the upstream head arrives (duration still unknown), because
    the final ``result`` line must stay last on the wire."""
    doc = {
        "event": "span",
        "id": 0,
        "parent": None,
        "name": "router:relay",
        "category": "service",
        "start_s": started_s,
        "duration_ms": round((time.time() - started_s) * 1e3, 3),
        "pid": os.getpid(),
        "attrs": {
            "trace_id": trace.trace_id,
            "span_id": hop.parent_span_id,
            "backend": backend_id,
        },
    }
    return (json.dumps(doc) + "\n").encode("utf-8")


def _json_or_none(body: bytes) -> object:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None


# -- the repro-route entry point ------------------------------------------


def _print_plan(options, backends: Sequence[Tuple[str, int]]) -> int:
    """Operator triage: fingerprint + chosen backend, no dispatch."""
    try:
        with open(options.print_plan) as handle:
            source = handle.read()
    except OSError as exc:
        print(
            f"repro-route: error: cannot read {options.print_plan}: "
            f"{exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    resolver = FingerprintResolver()
    key, key_kind = resolver.resolve({"kind": options.kind, "source": source})
    ids = [f"{h}:{p}" for h, p in backends]
    order = hrw_order(key, ids)
    print(f"fingerprint {key} ({key_kind})")
    print(f"backend {order[0]}")
    if len(order) > 1:
        print("failover " + " -> ".join(order[1:]))
    if key_kind != KEY_MODULE:
        print(
            "repro-route: note: source did not compile; routed by "
            "content digest (the backend will reject it with a 4xx)",
            file=sys.stderr,
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    from repro.service.cluster import ClusterConfig

    parser = argparse.ArgumentParser(
        prog="repro-route",
        description="fingerprint-sticky front-tier router over repro-serve backends",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--backend",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="a backend daemon address (repeatable)",
    )
    parser.add_argument(
        "--backends-file",
        metavar="FILE",
        help="file with one HOST:PORT per line ('#' comments allowed)",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="health poll cadence",
    )
    parser.add_argument(
        "--down-after",
        type=int,
        default=2,
        help="consecutive probe strikes before a backend is marked down",
    )
    parser.add_argument(
        "--probe-timeout", type=float, default=2.0, metavar="SECONDS"
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=2.0, metavar="SECONDS"
    )
    parser.add_argument(
        "--upstream-timeout",
        type=float,
        default=180.0,
        metavar="SECONDS",
        help="max time to wait for a backend's full response",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long SIGTERM waits for in-flight relays",
    )
    parser.add_argument(
        "--artifacts-dir",
        default=None,
        metavar="DIR",
        help="where the flight recorder dumps its ring on crash/drain",
    )
    parser.add_argument(
        "--print-plan",
        metavar="SOURCE",
        help="print the routing key and chosen backend for a source "
        "file, then exit without dispatching",
    )
    parser.add_argument(
        "--kind",
        choices=["minic", "ir"],
        default="minic",
        help="how --print-plan interprets the source file",
    )
    options = parser.parse_args(argv)

    try:
        cluster = ClusterConfig.from_args(options.backend, options.backends_file)
    except ValueError as exc:
        print(f"repro-route: error: {exc}", file=sys.stderr)
        return 2

    if options.print_plan is not None:
        return _print_plan(options, cluster.backends)

    try:
        config = RouterConfig(
            backends=cluster.backends,
            host=options.host,
            port=options.port,
            poll_interval_s=options.poll_interval,
            down_after=options.down_after,
            probe_timeout_s=options.probe_timeout,
            connect_timeout_s=options.connect_timeout,
            upstream_timeout_s=options.upstream_timeout,
            drain_grace_s=options.drain_grace,
            artifacts_dir=options.artifacts_dir,
        )
    except ValueError as exc:
        print(f"repro-route: error: {exc}", file=sys.stderr)
        return 2

    drained = {"clean": True}

    async def run() -> None:
        router = PromotionRouter(config)
        host, port = await router.start()
        router.install_signal_handlers()
        print(f"listening on {host}:{port}", file=sys.stderr, flush=True)
        await router.serve_forever()
        drained["clean"] = router.drained_clean is not False

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0 if drained["clean"] else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
