"""HTTP/1.1 for the service tier: the one implementation both fronts use.

``repro-serve`` (:mod:`repro.service.daemon`) and ``repro-route``
(:mod:`repro.service.router`) speak the same minimal dialect — one
request per connection, ``Connection: close``, JSON bodies or an NDJSON
stream — and this module is that dialect, once:

* the wire helpers: the request-head and request-target parsers, the
  reasons table, one response-head and one request-head writer,
  best-effort writes, and the client side (:func:`send_request`/:func:`read_response`) shared by
  :class:`~repro.service.client.ServiceClient` and the router's
  upstream legs, so a router hop cannot drift from what a direct
  client would send;
* :class:`HttpFront`, the server skeleton: bind, per-connection
  handling with the slow-loris and size guards, the introspection
  routes (``/healthz``, ``/readyz``, ``/metrics`` as JSON or Prometheus
  text by ``Accept``), the 404, the SIGTERM/SIGINT drain trigger, and
  :meth:`~HttpFront.run`.

A front subclasses :class:`HttpFront` and supplies its introspection
answers, its drain, and one job handler.  Because every request passes
the same parsers, a request target means the same thing to either
front.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from typing import Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.observability import FlightRecorder, TraceContext
from repro.observability import flightrecorder as flightrecorder_mod
from repro.observability.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.observability.prometheus import wants_text
from repro.service.errors import (
    JobValidationError,
    PayloadTooLargeError,
    RequestTimeoutError,
    ServiceError,
)

#: readuntil() buffer bound for a request or response head.
HEADER_LIMIT = 65536
JSON = "application/json"
NDJSON = "application/x-ndjson"

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


class ClientDisconnect(Exception):
    """The server closed the connection without a complete response."""


class Response:
    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: Dict[str, str], body: bytes) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> object:
        return json.loads(self.body.decode("utf-8"))


# -- parsing --------------------------------------------------------------


def _parse_fields(lines: List[str]) -> Dict[str, str]:
    """Header lines → a dict keyed by lowercased field name."""
    headers: Dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    """A request head → (method, target, headers); ValueError if malformed."""
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line {lines[0]!r}")
    return parts[0], parts[1], _parse_fields(lines[1:])


def _parse_target(target: str) -> Tuple[str, bool]:
    """A request target → (path, stream).  Origin and absolute forms
    both yield the path; a fragment is dropped.  ``stream`` is the last
    ``stream=`` value, percent-decoded, read as true unless it is
    ``0``, ``false`` or empty."""
    parts = urlsplit(target)
    stream = parse_qs(parts.query).get("stream", ["0"])[-1]
    return parts.path, stream not in ("0", "", "false")


# -- writing --------------------------------------------------------------


def _response_head(
    status: int,
    content_type: str,
    length: Optional[int],
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """The one response-head writer.  ``length`` is None for an NDJSON
    stream, whose end is the connection close."""
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}",
        f"Content-Type: {content_type}",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    lines.append("Connection: close")
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


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


async def close_quietly(writer: asyncio.StreamWriter) -> None:
    """Close a connection whose peer may already be gone."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _send_body(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    content_type: str,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    head = _response_head(status, content_type, len(payload), extra_headers)
    await _write_raw(writer, head + payload)


async def _send_json(
    writer: asyncio.StreamWriter,
    status: int,
    doc: Dict[str, object],
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    payload = json.dumps(doc).encode("utf-8")
    await _send_body(writer, status, payload, JSON, extra_headers)


async def _send_error(writer: asyncio.StreamWriter, error: ServiceError) -> None:
    await _send_json(writer, error.http_status, error.as_dict())


# -- the client side ------------------------------------------------------


def request_head(
    method: str, path: str, length: int, headers: Optional[Dict[str, str]] = None
) -> bytes:
    """The one request-head writer, for a body of ``length`` bytes."""
    lines = [f"{method} {path} HTTP/1.1", "Host: localhost"]
    if length:
        lines.append(f"Content-Type: {JSON}")
    lines.append(f"Content-Length: {length}")
    lines.append("Connection: close")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


async def send_request(
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[Dict[str, str]] = None,
) -> None:
    body = body or b""
    writer.write(request_head(method, path, len(body), headers) + body)
    await writer.drain()


async def read_response_head(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], Optional[int]]:
    """(status, headers, content length or None) of a response."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    try:
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ValueError("bad status line")
        status = int(parts[1])
        headers = _parse_fields(lines[1:])
        length = headers.get("content-length")
        return status, headers, None if length is None else int(length)
    except ValueError:
        raise ClientDisconnect(f"malformed response head {lines[0]!r}") from None


async def read_body(reader: asyncio.StreamReader, length: Optional[int]) -> bytes:
    """The body after a response head: ``length`` bytes, or up to EOF."""
    return await (reader.read() if length is None else reader.readexactly(length))


async def read_response(reader: asyncio.StreamReader) -> Response:
    status, headers, length = await read_response_head(reader)
    return Response(status, headers, await read_body(reader, length))


# -- the server skeleton --------------------------------------------------


class HttpFront:
    """What a daemon and a router share: the listener, the request
    edge, the introspection routes, and the drain lifecycle.

    ``config`` needs ``host``, ``port``, ``header_timeout_s``,
    ``body_timeout_s`` and ``max_body_bytes``.  A subclass supplies
    ``health()`` (the ``/healthz`` document), ``async readiness()``
    (``(status, doc)`` for ``/readyz``), ``metrics_doc()`` and ``async
    prometheus_metrics()`` (``/metrics`` as JSON or text), ``async
    _drain()`` (finish in-flight work once the listener is closed; True
    if clean), and ``async _serve_job(writer, body, stream, trace)``
    for a ``POST /v1/jobs`` whose body is read.  Its ``start()`` binds
    through :meth:`_listen` and keeps its one background task, if any,
    in ``self._background`` so the drain cancels it."""

    def __init__(self, config, flight: FlightRecorder) -> None:
        self.config = config
        #: The crash flight recorder: a bounded ring of recent events,
        #: dumped to ``config.artifacts_dir`` on crash, trip, or drain.
        self.flight = flight
        self.drained_clean: Optional[bool] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._done: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._background: Optional[asyncio.Task] = None
        self._draining = False
        self._started_at = 0.0
        self._inflight = 0

    # -- lifecycle -------------------------------------------------------

    async def _listen(self) -> Tuple[str, int]:
        """Arm the lifecycle and bind the listener; returns (host, port)."""
        self._done = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._started_at = time.monotonic()
        # Ambient install lets deep modules (engine, breakers, supervisor)
        # record into this front's ring without plumbing.
        flightrecorder_mod.install(self.flight)
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=HEADER_LIMIT,
        )
        return self._server.sockets[0].getsockname()[:2]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain.

        Deliberately ``signal.signal``, not ``loop.add_signal_handler``:
        the loop variant registers a C-level handler that writes into a
        wakeup pipe, and resilient promotion jobs *fork* a supervised
        worker process that inherits both.  A signal delivered to that
        worker would write into the shared pipe and the front's loop
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

    async def run(
        self,
        announce: Callable[[str], None],
        serve: Optional[Callable[[], Awaitable[None]]] = None,
    ) -> bool:
        """Start, trap SIGTERM/SIGINT, hand the one-line ``listening on
        HOST:PORT`` banner (tooling parses it) to ``announce``, and
        serve until drained — by ``serve`` when given, else
        :meth:`serve_forever`.  True when the drain was clean."""
        host, port = await self.start()
        self.install_signal_handlers()
        announce(f"listening on {host}:{port}")
        await (serve or self.serve_forever)()
        return self.drained_clean is not False

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: stop accepting, let the front's drain
        finish in-flight work, dump the flight ring, stop."""
        if self._draining:
            return
        self._draining = True
        self.flight.record(
            f"{self.flight.name}.drain",
            uptime_s=time.monotonic() - self._started_at,
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.drained_clean = await self._drain()
        self.flight.dump("sigterm-drain")
        if self._background is not None:
            self._background.cancel()
        if self._done is not None:
            self._done.set()

    async def _connections_idle(self, grace_s: float) -> bool:
        """Wait up to ``grace_s`` for open connections; True if they all
        finished."""
        assert self._idle is not None
        if self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=grace_s)
            except asyncio.TimeoutError:
                return False
        return True

    # -- the request edge --------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self._idle is not None
        self._inflight += 1
        self._idle.clear()
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-conversation; nothing to answer
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            await close_quietly(writer)

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=self.config.header_timeout_s
            )
        except asyncio.TimeoutError:
            await _send_error(
                writer, RequestTimeoutError("request head did not arrive in time")
            )
            return
        except asyncio.LimitOverrunError:
            await _send_error(
                writer, JobValidationError("request head exceeds the size limit")
            )
            return
        except (asyncio.IncompleteReadError, ConnectionError):
            return  # dropped connection before a full request head

        try:
            method, target, headers = _parse_head(head)
        except ValueError as exc:
            await _send_error(writer, JobValidationError(str(exc)))
            return
        path, stream = _parse_target(target)

        if method == "GET" and path == "/healthz":
            await _send_json(writer, 200, self.health())
            return
        if method == "GET" and path == "/readyz":
            status, doc = await self.readiness()
            await _send_json(writer, status, doc)
            return
        if method == "GET" and path == "/metrics":
            if wants_text(headers.get("accept")):
                text = await self.prometheus_metrics()
                await _send_body(
                    writer, 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
                )
            else:
                await _send_json(writer, 200, self.metrics_doc())
            return
        if method != "POST" or path != "/v1/jobs":
            await _send_json(
                writer,
                404,
                {"error": "not-found", "message": f"no route for {method} {path}"},
            )
            return

        try:
            body = await self._read_body(reader, headers)
        except ServiceError as exc:
            await _send_error(writer, exc)
            return
        trace = TraceContext.from_traceparent(headers.get("traceparent"))
        await self._serve_job(writer, body, stream, trace)

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
