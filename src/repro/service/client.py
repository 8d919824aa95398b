"""A raw-asyncio client for the daemon, plus the chaos traffic driver.

:class:`ServiceClient` speaks the daemon's minimal HTTP/1.1 dialect
(one request per connection, ``Connection: close``) with no third-party
dependencies — it exists for tests, the smoke tool, and as executable
documentation of the wire protocol.  The wire itself lives in
:mod:`repro.service.http`, shared with both servers and the router's
upstream legs.

:class:`ChaosTraffic` realizes :class:`ServiceChaosConfig` plans
against a live daemon: for each request index it asks the config which
hostile shape (if any) to send — a dropped connection, a slow-loris
body, a mid-stream disconnect, a malformed payload — and otherwise
submits the real job.  Runs are replayable from the seed, so a failure
seen in CI reproduces locally with the same spec string.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple

from repro.service.chaos import ServiceChaosConfig
from repro.service.http import (
    ClientDisconnect,
    Response,
    close_quietly,
    read_response,
    read_response_head,
    request_head,
    send_request,
)


class ServiceClient:
    """One-request-per-connection HTTP client for the daemon."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    async def _connect(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), timeout=self.timeout_s
        )

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        reader, writer = await self._connect()
        try:
            await send_request(writer, method, path, body, headers)
            return await asyncio.wait_for(read_response(reader), self.timeout_s)
        finally:
            await close_quietly(writer)

    async def get(self, path: str) -> Response:
        return await self.request("GET", path)

    async def submit(
        self,
        payload: Dict[str, object],
        stream: bool = False,
        trace=None,
    ):
        """Submit a job.  Non-streaming returns a :class:`Response`;
        streaming returns the list of decoded NDJSON event documents.
        ``trace`` (a :class:`~repro.observability.tracer.TraceContext`)
        joins the request to a distributed trace via ``traceparent``."""
        body = json.dumps(payload).encode("utf-8")
        headers = {"traceparent": trace.to_traceparent()} if trace else None
        if not stream:
            return await self.request("POST", "/v1/jobs", body, headers)
        reader, writer = await self._connect()
        try:
            await send_request(writer, "POST", "/v1/jobs?stream=1", body, headers)
            await asyncio.wait_for(read_response_head(reader), self.timeout_s)
            events: List[object] = []
            while True:
                line = await asyncio.wait_for(reader.readline(), self.timeout_s)
                if not line:
                    break
                if line.strip():
                    events.append(json.loads(line))
            return events
        finally:
            await close_quietly(writer)


class ChaosTraffic:
    """Seeded hostile-client traffic against a live daemon."""

    def __init__(
        self,
        client: ServiceClient,
        chaos: ServiceChaosConfig,
    ) -> None:
        self.client = client
        self.chaos = chaos
        #: mode -> count of requests realized in that shape ("none" for
        #: clean deliveries).
        self.sent: Dict[str, int] = {mode: 0 for mode in ServiceChaosConfig.MODES}
        self.sent["none"] = 0

    async def send(self, index: int, payload: Dict[str, object]):
        """Deliver ``payload`` as request number ``index``, realized in
        whatever shape the chaos plan dictates.  Returns the
        :class:`Response` for clean and malformed deliveries, ``None``
        for shapes that never read one."""
        mode = self.chaos.plan(index)
        self.sent[mode or "none"] += 1
        if mode == "drop":
            return await self._drop()
        if mode == "slow":
            return await self._slow(payload)
        if mode == "disconnect":
            return await self._disconnect(payload)
        if mode == "malformed":
            return await self._malformed(index)
        return await self.client.submit(payload)

    async def _drop(self) -> None:
        """Open a connection, send half a request head, vanish."""
        reader, writer = await self.client._connect()
        writer.write(b"POST /v1/jobs HT")
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        writer.close()
        return None

    async def _slow(self, payload: Dict[str, object]):
        """Slow-loris: declare a body, then trickle it slower than the
        daemon's body timeout.  Expect a 408 (or a hangup once the
        daemon gives up) — never a worker slot."""
        body = json.dumps(payload).encode("utf-8")
        reader, writer = await self.client._connect()
        try:
            writer.write(request_head("POST", "/v1/jobs", len(body)))
            await writer.drain()
            for chunk_start in range(0, len(body), 16):
                writer.write(body[chunk_start : chunk_start + 16])
                await writer.drain()
                await asyncio.sleep(self.chaos.slow_delay_s)
            return await asyncio.wait_for(
                read_response(reader), self.client.timeout_s
            )
        except (ConnectionError, OSError, ClientDisconnect, asyncio.TimeoutError):
            return None
        finally:
            await close_quietly(writer)

    async def _disconnect(self, payload: Dict[str, object]) -> None:
        """Send a complete streaming request, read one line, hang up —
        the daemon must finish the job and release the slot anyway."""
        body = json.dumps(payload).encode("utf-8")
        reader, writer = await self.client._connect()
        try:
            await send_request(writer, "POST", "/v1/jobs?stream=1", body)
            try:
                await asyncio.wait_for(reader.readline(), self.client.timeout_s)
            except asyncio.TimeoutError:
                pass
        except (ConnectionError, OSError):
            pass
        finally:
            await close_quietly(writer)
        return None

    async def _malformed(self, index: int):
        """One of a rotating set of broken payloads; all must come back
        as structured 4xx documents, never 5xx, never a hang."""
        shapes = [
            b"{not json at all",
            b'{"kind": "minic"}',
            b'{"source": 7, "kind": "minic"}',
            b'["a", "list", "not", "an", "object"]',
        ]
        body = shapes[index % len(shapes)]
        return await self.client.request("POST", "/v1/jobs", body)
