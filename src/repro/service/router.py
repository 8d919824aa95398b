"""The front tier: a source-keyed router over many daemons.

``repro-route`` scales the service horizontally: it fans out to N
backend ``repro-serve`` instances and speaks their HTTP/1.1 job
protocol by construction — both fronts are users of
:class:`~repro.service.http.HttpFront`, so head and target parsing,
body limits, introspection routes and drain triggers are one code path.
Each daemon owns a result cache whose value comes entirely from seeing
the same programs again — so the router keys placement on a **digest of
the submitted kind and source** (:func:`~repro.service.routing.routing_key`)
and the same program lands on one of the same two shards while they
are healthy.  The key is one hash computed inline: the router never
compiles or parses what it relays.

Moving parts:

* **Two-choice placement with deterministic failover** —
  :func:`~repro.service.routing.hrw_order` turns (routing key, backend
  ids) into a total order; element 0 is the home shard, the tail is the
  failover sequence every router instance agrees on without
  coordination.  Every job is CPU-bound on its daemon, so pure
  stickiness would leave a shard idle whenever two in-flight jobs share
  a home.  The router therefore counts the relays it has in flight per
  backend (:attr:`BackendState.inflight`, up before the dial, down in a
  ``finally``) and :func:`~repro.service.routing.two_choice_order` sends
  a job to its second choice when its home has strictly more relays in
  flight (a *spill*).  Ties keep the home, so an idle router and
  sequential traffic stay fully sticky, and a program's cached result
  lives on at most two shards.  The counts are per router instance:
  two routers in front of one shard set each balance their own relays.
* **One health record per backend** — :class:`HealthTracker` polls
  each backend's ``/readyz`` and walks instances through ``healthy →
  draining → down``; it is the only thing that decides whether a
  backend may take a job.  A draining backend receives no new jobs but
  keeps its in-flight relays — the daemon's own graceful-drain
  machinery finishes them — and a backend that answers ready again
  (rolling restart) is routed to again.  The daemon's circuit breaker
  is the one breaker: when it opens, ``/readyz`` answers 503
  ``circuit-open`` and the tracker marks the shard down.
* **Bounded retry-with-failover** — connect errors, upstream read
  errors and 5xx responses fail over to the next backend in HRW order
  (each backend tried at most once per job) and strike the tracker,
  exactly as a failed probe does; a 503 ``draining`` fails over
  without a strike.  A 504 is the job's own outcome (it ran past its
  deadline) and, like a 4xx, is relayed as-is; 429 shed responses are
  propagated to the client with their ``retry_after_s`` hint intact,
  because the shard's own load estimate is the honest one.

  *Idempotency contract*: a retry re-sends the **complete buffered
  envelope**, byte-for-byte.  Jobs are pure functions of that envelope
  — the daemon's byte-identity invariant guarantees a re-run returns
  the same result and mutates no cross-request state — so failing over
  a job that may already have started on a dying backend is safe.  The
  router asserts the precondition (the whole body is in hand before the
  first attempt) and decides on failover from the upstream status line
  alone, before a single response byte is relayed, so a client can
  never observe two interleaved timelines.
* **One relay path** — plain and streamed jobs go through the same
  :meth:`PromotionRouter._attempt`: the upstream head is read, a 5xx
  other than 504 fails over, anything else is relayed as a byte
  pass-through with an ``X-Repro-Backend`` header (and, on a 200
  NDJSON stream, the router's own ``router:relay`` span line first),
  so a streamed job keeps a single span timeline end to end.
* **Router-level observability** — ``/healthz``, ``/readyz``, and
  ``/metrics`` export ``router.*`` counters (failovers, spills, skips
  by backend status, stickiness hit-rate) and each backend's relays in
  flight through the shared
  :class:`~repro.observability.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability import FlightRecorder, TraceContext
from repro.observability import flightrecorder as flightrecorder_mod
from repro.observability.metrics import MetricsRegistry
from repro.observability.prometheus import (
    Sample,
    document_samples,
    exposition,
    registry_samples,
)
from repro.service.client import ServiceClient
from repro.service.config import validate_edge
from repro.service.errors import ServiceUnavailableError
from repro.service.http import (
    JSON,
    NDJSON,
    ClientDisconnect,
    HttpFront,
    _response_head,
    _send_json,
    _write_raw,
    close_quietly,
    read_body,
    read_response_head,
    send_request,
)
from repro.service.routing import hrw_order, routing_key, two_choice_order

#: Bound on each health probe and backend ``/metrics`` scrape.
PROBE_TIMEOUT_S = 2.0
#: Bound on each dispatch connect.
CONNECT_TIMEOUT_S = 2.0
#: Bound on each upstream read (jobs carry their own deadlines, clamped
#: by the daemon).
UPSTREAM_TIMEOUT_S = 180.0
#: Upstream trouble before a response is relayed: fail over.
_UPSTREAM_ERRORS = (
    OSError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    asyncio.LimitOverrunError,
    ClientDisconnect,
)
_RELAY_CHUNK = 65536

HEALTHY = "healthy"
DRAINING = "draining"
DOWN = "down"


class RouterConfig:
    """Tunables for :class:`PromotionRouter`.

    ``backends`` is the static shard list — (host, port) pairs, at
    least one.  ``poll_interval_s`` drives the health tracker;
    ``down_after`` consecutive strikes (failed probes, not-ready answers,
    dispatch connect/read errors, backend 5xx) mark a backend ``down``.
    Drain/slow-loris knobs mirror
    :class:`~repro.service.config.ServiceConfig` and pass the same
    checks.
    """

    def __init__(
        self,
        backends: Sequence[Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval_s: float = 2.0,
        down_after: int = 2,
        header_timeout_s: float = 5.0,
        body_timeout_s: float = 10.0,
        max_body_bytes: int = 2_500_000,
        drain_grace_s: float = 10.0,
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
        if poll_interval_s <= 0:
            raise ValueError(f"poll_interval_s must be > 0, got {poll_interval_s}")
        validate_edge(
            drain_grace_s=drain_grace_s,
            header_timeout_s=header_timeout_s,
            body_timeout_s=body_timeout_s,
            max_body_bytes=max_body_bytes,
        )
        self.backends = backends
        self.host = host
        self.port = port
        self.poll_interval_s = poll_interval_s
        self.down_after = down_after
        self.header_timeout_s = header_timeout_s
        self.body_timeout_s = body_timeout_s
        self.max_body_bytes = max_body_bytes
        self.drain_grace_s = drain_grace_s
        #: Flight-recorder dump directory (crash/drain forensics);
        #: ``None`` keeps the ring memory-only.
        self.artifacts_dir = artifacts_dir

    def as_dict(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "port": self.port,
            "backends": [f"{h}:{p}" for h, p in self.backends],
            "poll_interval_s": self.poll_interval_s,
            "down_after": self.down_after,
            "header_timeout_s": self.header_timeout_s,
            "body_timeout_s": self.body_timeout_s,
            "max_body_bytes": self.max_body_bytes,
            "drain_grace_s": self.drain_grace_s,
            "artifacts_dir": self.artifacts_dir,
        }


class BackendState:
    """One shard as the router sees it: address, health status, strikes,
    relays in flight, and per-backend accounting."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.id = f"{host}:{port}"
        # Optimistic start: jobs flow before the first poll completes;
        # a dead backend costs one connect failure, which the failover
        # path absorbs.
        self.status = HEALTHY
        self.strikes = 0
        self.transitions = 0
        #: This router's relays to the shard that have not finished yet.
        self.inflight = 0
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
            "inflight": self.inflight,
            "jobs_total": self.jobs_total,
            "failures_total": self.failures_total,
            "last_probe_error": self.last_probe_error,
        }


class HealthTracker:
    """Drives ``healthy → draining → down`` (and back) from probes and
    dispatch outcomes — the router's one record of whether a backend may
    take a job.

    One :meth:`poll_once` sends every backend a concurrent ``GET
    /readyz``.  ``draining`` is immediate (the daemon said so — stop
    sending new work *now* so its grace window is spent on in-flight
    jobs, not on fresh arrivals); ``down`` needs ``down_after``
    consecutive strikes so one dropped probe does not evict a healthy
    shard; a ready answer fully rehabilitates a backend.  Dispatch
    failures strike the same counter via :meth:`note_failure`, so a
    crashed backend goes dark even between polls, and a relayed success
    clears it via :meth:`note_success`.
    """

    def __init__(
        self, backends: Dict[str, BackendState], down_after: int = 2
    ) -> None:
        self.backends = backends
        self.down_after = down_after

    # -- evidence --------------------------------------------------------

    def apply_probe(
        self,
        state: BackendState,
        ready_status: Optional[int],
        ready_doc: Optional[Dict[str, object]],
        error: Optional[str] = None,
    ) -> None:
        """Fold one ``/readyz`` probe's outcome into the state machine."""
        state.last_probe_error = error
        if error is None and ready_status == 200:
            state.strikes = 0
            state.set_status(HEALTHY)
        elif error is None and (ready_doc or {}).get("reason") == "draining":
            state.strikes = 0
            state.set_status(DRAINING)
        else:
            # Unreachable, or alive but not ready (circuit open, pool
            # wedged): strikes, so a transient blip survives but a stuck
            # shard goes dark.
            self._strike(state)

    def note_failure(self, state: BackendState) -> None:
        """A dispatch got no answer, or a 5xx that is the backend's own
        fault: count it and strike."""
        state.failures_total += 1
        self._strike(state)

    def note_success(self, state: BackendState) -> None:
        """A relayed success: the failure streak is over."""
        state.strikes = 0

    def note_draining(self, state: BackendState) -> None:
        """A dispatch came back 503/draining before the poller noticed."""
        state.set_status(DRAINING)

    def _strike(self, state: BackendState) -> None:
        state.strikes += 1
        if state.strikes >= self.down_after and state.set_status(DOWN):
            flightrecorder_mod.ambient().record(
                "router.backend_down",
                backend=state.id,
                strikes=state.strikes,
                error=state.last_probe_error,
            )

    # -- polling ---------------------------------------------------------

    async def poll_once(self) -> None:
        await asyncio.gather(
            *(self._probe(state) for state in self.backends.values())
        )

    async def _probe(self, state: BackendState) -> None:
        client = ServiceClient(state.host, state.port, timeout_s=PROBE_TIMEOUT_S)
        try:
            response = await client.get("/readyz")
        except Exception as exc:  # noqa: BLE001 - a probe must never kill the loop
            self.apply_probe(state, None, None, error=type(exc).__name__)
            return
        doc = _json_or_none(response.body)
        self.apply_probe(state, response.status, doc if isinstance(doc, dict) else None)

    def counts(self) -> Dict[str, int]:
        doc = {HEALTHY: 0, DRAINING: 0, DOWN: 0}
        for state in self.backends.values():
            doc[state.status] += 1
        return doc


class PromotionRouter(HttpFront):
    """The asyncio front tier: health poller and relay engine behind the
    shared HTTP edge."""

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(
            config, FlightRecorder("router", artifacts_dir=config.artifacts_dir)
        )
        self.backends: Dict[str, BackendState] = {}
        for host, port in config.backends:
            state = BackendState(host, port)
            self.backends[state.id] = state
        self.backend_ids = list(self.backends)
        self.tracker = HealthTracker(self.backends, down_after=config.down_after)
        self.metrics = MetricsRegistry()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        # The tracker records ``router.backend_down`` into whatever
        # recorder is ambient — _listen makes it this router's before
        # the poller first runs.
        self.flight.record("router.start", backends=list(self.backend_ids))
        self._background = asyncio.ensure_future(self._poll_loop())
        return await self._listen()

    async def _drain(self) -> bool:
        """Let in-flight relays finish, bounded by the grace period."""
        return await self._connections_idle(self.config.drain_grace_s)

    async def _poll_loop(self) -> None:
        while True:
            try:
                await self.tracker.poll_once()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - polling must never die
                pass
            await asyncio.sleep(self.config.poll_interval_s)

    # -- routing ---------------------------------------------------------

    def plan(self, payload: object) -> Tuple[str, List[str]]:
        """(routing key, HRW backend order) for a decoded payload — the
        pure routing decision, before in-flight relays are weighed."""
        key = routing_key(payload)
        return key, hrw_order(key, self.backend_ids)

    # -- the relay engine ------------------------------------------------

    async def _serve_job(
        self,
        writer: asyncio.StreamWriter,
        body: bytes,
        stream: bool,
        trace: Optional[TraceContext],
    ) -> None:
        # Adopt the caller's distributed trace or start one at the edge;
        # every backend leg carries it as a ``traceparent`` header.
        trace = trace or TraceContext.new()
        # Idempotency precondition: every attempt re-sends this exact
        # buffered envelope, so failover can never split a job across
        # two half-delivered requests.
        assert body is not None
        key, order = self.plan(_json_or_none(body))
        home = order[0]
        # No await until the first dial has counted itself in flight, so
        # the next job's placement already sees this one.
        states = self.backends.items()
        order = two_choice_order(
            order,
            {backend_id: state.inflight for backend_id, state in states},
            {backend_id for backend_id, state in states if state.status == HEALTHY},
        )
        # The router's hop in the trace: each backend leg is a child of
        # this span id, so the daemon's ``daemon:job`` span hangs off it.
        hop = trace.child()
        self.flight.record(
            "router.job",
            trace_id=trace.trace_id,
            key=key,
            home=home,
            placed=order[0],
            stream=stream,
        )
        self.metrics.inc("router.jobs_total")
        if stream:
            self.metrics.inc("router.jobs.stream")
        if order[0] != home:
            self.metrics.inc("router.spills")

        attempts = 0
        last_error: Optional[Tuple[str, Tuple[int, Dict[str, object]]]] = None
        for backend_id in order:
            state = self.backends[backend_id]
            if state.status != HEALTHY:
                self.metrics.inc(f"router.skips.{state.status}")
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
            served, error = await self._attempt(
                writer, state, body, stream, trace, hop
            )
            if served:
                self.metrics.inc("router.sticky.routed")
                if backend_id == home:
                    self.metrics.inc("router.sticky.hits")
                return
            # Not served: fall through to the next backend in HRW order.
            if error is not None:
                last_error = (backend_id, error)
        self.metrics.inc("router.jobs.unrouted")
        self.flight.record("router.unrouted", trace_id=trace.trace_id, key=key)
        headers = {"X-Repro-Trace-Id": trace.trace_id}
        if last_error is not None:
            # Every backend was tried and the last wire answer was an
            # error document: relay it rather than masking the cause.
            backend_id, (status, doc) = last_error
            headers["X-Repro-Backend"] = backend_id
            await _send_json(writer, status, doc, extra_headers=headers)
            return
        unavailable = ServiceUnavailableError(
            "no healthy backend is available for this job",
            reason="no-backend",
            retry_after_s=self.config.poll_interval_s,
        )
        await _send_json(
            writer, unavailable.http_status, unavailable.as_dict(), headers
        )

    async def _attempt(
        self,
        writer: asyncio.StreamWriter,
        state: BackendState,
        body: bytes,
        stream: bool,
        trace: TraceContext,
        hop: TraceContext,
    ) -> Tuple[bool, Optional[Tuple[int, Dict[str, object]]]]:
        """One dispatch to one backend, plain or streamed alike.
        Returns ``(served, error)``: ``served`` once the upstream head
        was relayed to the client, after which failover is off the
        table (a second backend would fork the span timeline);
        otherwise ``error`` is the upstream's 5xx ``(status, doc)``, or
        None when it never produced a response head.

        Only the status line decides: a 5xx other than 504 — a 503
        ``draining`` included — is read in full and fails over before
        any byte reaches the client.  Anything else is relayed as-is:
        4xx is the client's fault, 429 carries the shard's own honest
        retry-after hint, and 504 is the job's own deadline running
        out, which another shard would only repeat.  The relayed head
        gains ``X-Repro-Backend``; on a 200 NDJSON stream the first line
        the client sees is the router's own ``router:relay`` span, same
        ``trace_id`` as every span the backend streams after it.

        The dispatch counts in ``state.inflight`` from before the dial
        until it ends, however it ends."""
        started_s = time.time()
        state.inflight += 1
        upstream: Optional[asyncio.StreamWriter] = None
        try:
            try:
                reader, upstream = await asyncio.wait_for(
                    asyncio.open_connection(state.host, state.port),
                    timeout=CONNECT_TIMEOUT_S,
                )
            except (OSError, asyncio.TimeoutError):
                self.tracker.note_failure(state)
                return False, None
            try:
                await send_request(
                    upstream,
                    "POST",
                    "/v1/jobs?stream=1" if stream else "/v1/jobs",
                    body,
                    headers={"traceparent": hop.to_traceparent()},
                )
                status, headers, length = await asyncio.wait_for(
                    read_response_head(reader), timeout=UPSTREAM_TIMEOUT_S
                )
            except _UPSTREAM_ERRORS:
                self.tracker.note_failure(state)
                return False, None

            if status >= 500 and status != 504:
                try:
                    raw = await asyncio.wait_for(
                        read_body(reader, length), timeout=UPSTREAM_TIMEOUT_S
                    )
                except _UPSTREAM_ERRORS:
                    raw = b""
                doc = _json_or_none(raw)
                doc = doc if isinstance(doc, dict) else {"error": "upstream-error"}
                if status == 503 and doc.get("reason") == "draining":
                    # The backend is leaving; reroute this job and stop
                    # feeding the shard before the next poll even runs.
                    self.tracker.note_draining(state)
                    self.metrics.inc("router.drains.observed")
                else:
                    self.tracker.note_failure(state)
                return False, (status, doc)

            state.jobs_total += 1
            if status < 400:
                self.tracker.note_success(state)
                self.metrics.inc("router.jobs.relayed")
            else:
                self.metrics.inc("router.jobs.rejected")
            content_type = headers.get("content-type", JSON)
            head = _response_head(
                status,
                content_type,
                length,
                {"X-Repro-Backend": state.id, "X-Repro-Trace-Id": trace.trace_id},
            )
            if status == 200 and content_type == NDJSON:
                head += _router_span_line(trace, hop, state.id, started_s)
            client_ok = await _write_raw(writer, head)
            remaining = length
            while remaining is None or remaining > 0:
                size = min(_RELAY_CHUNK, remaining or _RELAY_CHUNK)
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(size), timeout=UPSTREAM_TIMEOUT_S
                    )
                except (OSError, asyncio.TimeoutError):
                    break
                if not chunk:
                    break
                if remaining is not None:
                    remaining -= len(chunk)
                if client_ok:
                    # A vanished client stops receiving, but keep
                    # draining upstream so the backend's job/slot
                    # lifecycle is undisturbed (same semantics as the
                    # daemon's own streaming path).
                    client_ok = await _write_raw(writer, chunk)
            return True, None
        finally:
            # Out of flight before the close: a client that already holds
            # the whole answer may be sending its next job.
            state.inflight -= 1
            if upstream is not None:
                await close_quietly(upstream)

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

    async def readiness(self) -> Tuple[int, Dict[str, object]]:
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
        counts = self.tracker.counts()
        self.metrics.set("router.backends.healthy", counts[HEALTHY])
        self.metrics.set("router.backends.draining", counts[DRAINING])
        self.metrics.set("router.backends.down", counts[DOWN])
        self.metrics.set(
            "router.health.transitions",
            sum(state.transitions for state in self.backends.values()),
        )
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
                    "repro_router_backend_inflight",
                    "gauge",
                    float(state.inflight),
                    labels,
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
        client = ServiceClient(state.host, state.port, timeout_s=PROBE_TIMEOUT_S)
        try:
            response = await client.get("/metrics")
        except Exception:  # noqa: BLE001 - a scrape must never break /metrics
            return None
        doc = _json_or_none(response.body)
        return doc if isinstance(doc, dict) else None


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
    """Operator triage: routing key, home backend, failover order and
    spill target, no dispatch."""
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
    key = routing_key({"kind": options.kind, "source": source})
    order = hrw_order(key, [f"{h}:{p}" for h, p in backends])
    print(f"key {key}")
    print(f"backend {order[0]}")
    if len(order) > 1:
        print("failover " + " -> ".join(order[1:]))
        print(f"spill {order[1]} (when the home has more jobs in flight)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    from repro.service.cluster import ClusterConfig

    parser = argparse.ArgumentParser(
        prog="repro-route",
        description="source-keyed front-tier router over repro-serve backends",
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
        help="print the routing key, home backend, failover order and "
        "spill target for a source file, then exit without dispatching",
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
            drain_grace_s=options.drain_grace,
            artifacts_dir=options.artifacts_dir,
        )
    except ValueError as exc:
        print(f"repro-route: error: {exc}", file=sys.stderr)
        return 2

    def announce(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    try:
        clean = asyncio.run(PromotionRouter(config).run(announce))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        clean = True
    return 0 if clean else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
