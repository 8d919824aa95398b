"""In-process end-to-end tests of the front-tier router.

A real :class:`PromotionRouter` on a real socket, in front of real
:class:`PromotionDaemon` instances (for byte-identity, stickiness, and
streaming) and canned fake backends (for the failure matrix: 5xx,
connect errors, 429 propagation, drain rerouting; and, held busy, for
two-choice spills and in-flight accounting) — all in one loop.
"""

import asyncio
import contextlib
import json

import pytest

from repro.observability import TraceContext
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.daemon import PromotionDaemon
from repro.service.router import (
    DOWN,
    DRAINING,
    HEALTHY,
    BackendState,
    HealthTracker,
    PromotionRouter,
    RouterConfig,
)
from repro.service.router import main as router_main
from repro.service.routing import hrw_order, routing_key
from repro.service.smoke import fresh_serial_run

PROGRAM = """
int total = 0;
int bump(int k) { total += k; return total; }
int main() {
    for (int i = 0; i < 25; i++) bump(i);
    print(total);
    return total % 251;
}
"""


def payload_for(source=PROGRAM):
    return {"kind": "minic", "source": source}


class FakeBackend:
    """A canned upstream: ready on ``/readyz`` probes, scripted on job
    posts; ``paths`` records every request target it was sent.  Given
    ``hold`` (an :class:`asyncio.Event`), it counts each job in
    ``jobs_seen`` at once but answers only after the event is set — a
    shard kept busy for as long as a test needs."""

    def __init__(self, status=200, body=None, hold=None):
        self.status = status
        self.body = json.dumps(body if body is not None else {"ok": True}).encode()
        self.hold = hold
        self.jobs_seen = 0
        self.paths = []
        self.server = None
        self.host = ""
        self.port = 0

    async def start(self):
        self.server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.host, self.port = self.server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self):
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()

    async def _handle(self, reader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            first = head.split(b"\r\n", 1)[0].decode("latin-1")
            length = 0
            for line in head.decode("latin-1").split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if length:
                await reader.readexactly(length)
            self.paths.append(first.split(" ")[1])
            if first.startswith("GET /readyz"):
                status, body = 200, b'{"ready": true}'
            elif first.startswith("GET "):
                status, body = 404, b'{"error": "not-found"}'
            else:
                self.jobs_seen += 1
                if self.hold is not None:
                    await self.hold.wait()
                status, body = self.status, self.body
            writer.write(
                (
                    f"HTTP/1.1 {status} X\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("ascii")
                + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


@contextlib.asynccontextmanager
async def running_router(backends, **overrides):
    overrides.setdefault("poll_interval_s", 30.0)
    router = PromotionRouter(RouterConfig(backends, **overrides))
    host, port = await router.start()
    try:
        yield router, ServiceClient(host, port, timeout_s=30.0)
    finally:
        await router.drain_and_stop()


@contextlib.asynccontextmanager
async def running_daemons(count):
    """Yields [(daemon, host, port), ...] for ``count`` live daemons."""
    daemons = []
    try:
        for _ in range(count):
            daemon = PromotionDaemon(ServiceConfig(workers=1))
            host, port = await daemon.start()
            daemons.append((daemon, host, port))
        yield daemons
    finally:
        for daemon, _, _ in daemons:
            await daemon.drain_and_stop()


def homed_source(router, target_id):
    """A compilable program whose HRW home is ``target_id`` — found by
    enumeration, deterministic because the hash is pure."""
    for i in range(200):
        source = f"int main() {{ print({i}); return {i % 7}; }}"
        _, order = router.plan(payload_for(source))
        if order[0] == target_id:
            return source
    raise AssertionError(f"no candidate homed at {target_id}")


def counter(router, name):
    return router.metrics.value(name) or 0


def backend_id(fake):
    return f"{fake.host}:{fake.port}"


async def eventually(predicate, timeout_s=5.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out waiting"
        await asyncio.sleep(0.005)


async def assert_inflight_settles(router, timeout_s=2.0):
    """Every backend's in-flight count returns to 0 once the relays end
    (a relay's ``finally`` may run just after its client got the last
    byte).  A leaked count never returns, and would steer jobs away from
    that shard for good."""
    try:
        await eventually(
            lambda: not any(s.inflight for s in router.backends.values()),
            timeout_s,
        )
    except AssertionError:
        leaked = {b: s.inflight for b, s in router.backends.items()}
        raise AssertionError(f"in-flight counts never settled: {leaked}") from None


def test_endpoints_and_metrics_shape():
    async def body():
        fake = FakeBackend()
        await fake.start()
        async with running_router([(fake.host, fake.port)]) as (router, client):
            health = (await client.get("/healthz")).json()
            assert health["status"] == "ok"
            assert list(health["backends"]) == [fake.host + f":{fake.port}"]

            ready = await client.get("/readyz")
            assert ready.status == 200
            assert ready.json()["ready"] is True

            metrics = (await client.get("/metrics")).json()
            assert set(metrics) == {"router", "stickiness_hit_rate", "backends"}

            missing = await client.get("/nope")
            assert missing.status == 404
        await fake.stop()

    asyncio.run(body())


def test_byte_identity_and_stickiness_through_router():
    async def body():
        async with running_daemons(2) as daemons:
            backends = [(host, port) for _, host, port in daemons]
            async with running_router(backends) as (router, client):
                payload = payload_for()
                _, order = router.plan(payload)

                first = await client.submit(payload)
                assert first.status == 200
                doc = first.json()
                ir, output, return_value = fresh_serial_run(payload)
                assert doc["ir"] == ir
                assert doc["output"] == output
                assert doc["return_value"] == return_value
                assert first.headers["x-repro-backend"] == order[0]

                # Warm resubmits stay on the home shard.
                for _ in range(3):
                    again = await client.submit(payload)
                    assert again.headers["x-repro-backend"] == order[0]
                assert router.stickiness_hit_rate() == 1.0
                assert counter(router, "router.failovers") == 0

    asyncio.run(body())


def test_failover_when_home_daemon_leaves():
    async def body():
        async with running_daemons(2) as daemons:
            backends = [(host, port) for _, host, port in daemons]
            async with running_router(backends) as (router, client):
                payload = payload_for()
                _, order = router.plan(payload)
                home = next(
                    d for d, host, port in daemons if f"{host}:{port}" == order[0]
                )
                await home.drain_and_stop()

                response = await client.submit(payload)
                assert response.status == 200
                assert response.headers["x-repro-backend"] == order[1]
                assert counter(router, "router.failovers") == 1
                # Stickiness accounting is honest about the miss.
                assert router.stickiness_hit_rate() == 0.0

    asyncio.run(body())


def test_5xx_fails_over_and_relays_the_survivor():
    async def body():
        broken = FakeBackend(status=500, body={"error": "boom"})
        healthy = FakeBackend(status=200, body={"ok": True})
        await broken.start()
        await healthy.start()
        backends = [(broken.host, broken.port), (healthy.host, healthy.port)]
        async with running_router(backends) as (router, client):
            source = homed_source(router, f"{broken.host}:{broken.port}")
            response = await client.submit(payload_for(source))
            assert response.status == 200
            assert response.json() == {"ok": True}
            assert response.headers["x-repro-backend"] == (
                f"{healthy.host}:{healthy.port}"
            )
            assert broken.jobs_seen == 1
            assert counter(router, "router.failovers") == 1
        await broken.stop()
        await healthy.stop()

    asyncio.run(body())


def test_504_is_the_jobs_own_outcome_no_failover_no_strike():
    async def body():
        slow = FakeBackend(status=504, body={"error": "deadline-exceeded"})
        healthy = FakeBackend()
        await slow.start()
        await healthy.start()
        backends = [(slow.host, slow.port), (healthy.host, healthy.port)]
        async with running_router(backends, down_after=2) as (router, client):
            slow_id = f"{slow.host}:{slow.port}"
            source = homed_source(router, slow_id)
            for _ in range(5):
                response = await client.submit(payload_for(source))
                assert response.status == 504
                assert response.json() == {"error": "deadline-exceeded"}
                assert response.headers["x-repro-backend"] == slow_id
            assert healthy.jobs_seen == 0
            assert counter(router, "router.failovers") == 0
            assert counter(router, "router.jobs.rejected") == 5
            assert router.backends[slow_id].status == HEALTHY
            assert router.backends[slow_id].failures_total == 0
        await slow.stop()
        await healthy.stop()

    asyncio.run(body())


def test_5xx_strikes_mark_down_and_a_ready_probe_rehabilitates():
    async def body():
        broken = FakeBackend(status=500, body={"error": "engine-failure"})
        healthy = FakeBackend()
        await broken.start()
        await healthy.start()
        backends = [(broken.host, broken.port), (healthy.host, healthy.port)]
        async with running_router(backends, down_after=2) as (router, client):
            broken_id = f"{broken.host}:{broken.port}"
            source = homed_source(router, broken_id)
            for _ in range(2):
                response = await client.submit(payload_for(source))
                assert response.status == 200
            assert broken.jobs_seen == 2
            assert router.backends[broken_id].status == DOWN
            assert router.backends[broken_id].failures_total == 2
            # The next job skips the down shard without dialing it.
            response = await client.submit(payload_for(source))
            assert response.status == 200
            assert broken.jobs_seen == 2
            assert counter(router, "router.skips.down") == 1
            # Its /readyz still answers 200: one poll routes to it again.
            await router.tracker.poll_once()
            assert router.backends[broken_id].status == HEALTHY
            assert router.backends[broken_id].strikes == 0
            await client.submit(payload_for(source))
            assert broken.jobs_seen == 3
        await broken.stop()
        await healthy.stop()

    asyncio.run(body())


def test_poller_sends_only_readyz():
    async def body():
        fake = FakeBackend()
        await fake.start()
        async with running_router([(fake.host, fake.port)]) as (router, _):
            await router.tracker.poll_once()
            assert fake.paths
            assert set(fake.paths) == {"/readyz"}
        await fake.stop()

    asyncio.run(body())


def test_every_backend_failing_relays_the_last_error_with_its_ids():
    async def body():
        fakes = [FakeBackend(status=500, body={"error": f"boom-{i}"}) for i in range(2)]
        for fake in fakes:
            await fake.start()
        backends = [(fake.host, fake.port) for fake in fakes]
        async with running_router(backends) as (router, client):
            _, order = router.plan(payload_for())
            trace = TraceContext.new()
            response = await client.submit(payload_for(), trace=trace)
            last = next(f for f in fakes if f"{f.host}:{f.port}" == order[1])
            assert response.status == 500
            assert response.body == last.body
            assert response.headers["x-repro-backend"] == order[1]
            assert response.headers["x-repro-trace-id"] == trace.trace_id
            assert counter(router, "router.jobs.unrouted") == 1
        for fake in fakes:
            await fake.stop()

    asyncio.run(body())


def test_429_propagates_with_retry_hint_no_failover():
    async def body():
        shedding = FakeBackend(
            status=429,
            body={"error": "overloaded", "retry_after_s": 1.5},
        )
        idle = FakeBackend()
        await shedding.start()
        await idle.start()
        backends = [(shedding.host, shedding.port), (idle.host, idle.port)]
        async with running_router(backends) as (router, client):
            source = homed_source(router, f"{shedding.host}:{shedding.port}")
            response = await client.submit(payload_for(source))
            # The shard's own load estimate is honest: relay it, don't
            # chase a second backend.
            assert response.status == 429
            assert response.json()["retry_after_s"] == 1.5
            assert idle.jobs_seen == 0
            assert counter(router, "router.failovers") == 0
            assert counter(router, "router.jobs.rejected") == 1
        await shedding.stop()
        await idle.stop()

    asyncio.run(body())


def test_draining_503_reroutes_and_marks_backend():
    async def body():
        leaving = FakeBackend(
            status=503,
            body={"error": "unavailable", "reason": "draining"},
        )
        survivor = FakeBackend()
        await leaving.start()
        await survivor.start()
        backends = [(leaving.host, leaving.port), (survivor.host, survivor.port)]
        async with running_router(backends) as (router, client):
            leaving_id = f"{leaving.host}:{leaving.port}"
            source = homed_source(router, leaving_id)
            response = await client.submit(payload_for(source))
            assert response.status == 200
            assert router.backends[leaving_id].status == DRAINING
            # The next job skips the draining shard without dialing it.
            seen = leaving.jobs_seen
            again = await client.submit(payload_for(source))
            assert again.status == 200
            assert leaving.jobs_seen == seen
            assert counter(router, "router.skips.draining") >= 1
        await leaving.stop()
        await survivor.stop()

    asyncio.run(body())


def test_all_backends_dead_yields_structured_503():
    async def body():
        # Grab two ports that nothing listens on.
        dead = []
        for _ in range(2):
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            dead.append(server.sockets[0].getsockname()[:2])
            server.close()
            await server.wait_closed()
        async with running_router(dead) as (router, client):
            trace = TraceContext.new()
            response = await client.submit(payload_for(), trace=trace)
            assert response.status == 503
            doc = response.json()
            assert doc["reason"] == "no-backend"
            assert doc["retry_after_s"] > 0
            assert response.headers["x-repro-trace-id"] == trace.trace_id
            assert counter(router, "router.jobs.unrouted") == 1

    asyncio.run(body())


def test_streaming_passthrough_keeps_one_timeline():
    async def body():
        async with running_daemons(1) as daemons:
            backends = [(host, port) for _, host, port in daemons]
            async with running_router(backends) as (router, client):
                events = await client.submit(payload_for(), stream=True)
                assert events
                assert events[-1]["event"] == "result"
                assert any(e.get("event") == "span" for e in events)
                assert counter(router, "router.jobs.stream") == 1

    asyncio.run(body())


def test_garbage_payload_routes_by_digest_and_relays_4xx():
    async def body():
        async with running_daemons(1) as daemons:
            backends = [(host, port) for _, host, port in daemons]
            async with running_router(backends) as (router, client):
                response = await client.request(
                    "POST", "/v1/jobs", b"{not json at all"
                )
                assert 400 <= response.status < 500
                assert "x-repro-backend" in response.headers

    asyncio.run(body())


def test_garbage_stream_payload_relays_the_daemons_4xx_intact():
    async def body():
        async with running_daemons(1) as daemons:
            _, host, port = daemons[0]
            direct = await ServiceClient(host, port).request(
                "POST", "/v1/jobs?stream=1", b"{not json at all"
            )
            async with running_router([(host, port)]) as (router, client):
                response = await client.request(
                    "POST", "/v1/jobs?stream=1", b"{not json at all"
                )
                assert direct.status == 400
                assert response.status == 400
                # The body framed by Content-Length is the daemon's own
                # error document: no span line is spliced into a 4xx.
                assert response.body == direct.body
                assert response.headers["x-repro-backend"] == f"{host}:{port}"
                assert counter(router, "router.jobs.rejected") == 1

    asyncio.run(body())


@pytest.mark.parametrize(
    "target",
    [
        "/v1/jobs",
        "/v1/jobs?stream=1&stream=0",
        "/v1/jobs?stream=0&stream=1",
        "/v1/jobs?stream=%31",
        "http://{address}/v1/jobs",
        "/v1/jobs#frag",
    ],
)
def test_router_reads_request_targets_like_the_daemon(target):
    envelope = json.dumps(payload_for("int main() { print(3); return 3; }")).encode()

    async def body():
        async with running_daemons(1) as daemons:
            _, host, port = daemons[0]
            async with running_router([(host, port)]) as (_, client):
                fronts = [ServiceClient(host, port), client]
                answers = []
                for front in fronts:
                    path = target.format(address=f"{front.host}:{front.port}")
                    answers.append(await front.request("POST", path, envelope))
                daemon_answer, router_answer = answers
                assert daemon_answer.status == 200
                assert router_answer.status == daemon_answer.status
                assert (
                    router_answer.headers["content-type"]
                    == daemon_answer.headers["content-type"]
                )

    asyncio.run(body())


async def unused_address():
    """A (host, port) that nothing listens on."""
    server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
    address = server.sockets[0].getsockname()[:2]
    server.close()
    await server.wait_closed()
    return address


def test_busy_home_spills_a_concurrent_job_to_the_second_choice():
    async def body():
        release = asyncio.Event()
        busy = FakeBackend(hold=release)
        idle = FakeBackend()
        await busy.start()
        await idle.start()
        backends = [(busy.host, busy.port), (idle.host, idle.port)]
        async with running_router(backends) as (router, client):
            source = homed_source(router, backend_id(busy))
            first = asyncio.ensure_future(client.submit(payload_for(source)))
            await eventually(lambda: busy.jobs_seen == 1)
            assert router.backends[backend_id(busy)].inflight == 1
            # The same program again while its home is held busy: it
            # lands on its second choice.
            second = await client.submit(payload_for(source))
            assert second.status == 200
            assert second.headers["x-repro-backend"] == backend_id(idle)
            assert counter(router, "router.spills") == 1
            release.set()
            first = await first
            assert first.headers["x-repro-backend"] == backend_id(busy)
            assert counter(router, "router.sticky.routed") == 2
            assert counter(router, "router.sticky.hits") == 1
            assert counter(router, "router.failovers") == 0
            await assert_inflight_settles(router)
            # An idle router sends the program home again.
            third = await client.submit(payload_for(source))
            assert third.headers["x-repro-backend"] == backend_id(busy)
            assert counter(router, "router.spills") == 1
        await busy.stop()
        await idle.stop()

    asyncio.run(body())


def test_busy_home_keeps_the_job_when_the_second_choice_is_down():
    async def body():
        release = asyncio.Event()
        busy = FakeBackend(hold=release)
        await busy.start()
        dead = await unused_address()
        async with running_router([(busy.host, busy.port), dead]) as (router, client):
            dead_id = f"{dead[0]}:{dead[1]}"
            # Nothing listens there, so no probe can bring it back.
            router.backends[dead_id].set_status(DOWN)
            source = homed_source(router, backend_id(busy))
            jobs = [
                asyncio.ensure_future(client.submit(payload_for(source)))
                for _ in range(2)
            ]
            await eventually(lambda: busy.jobs_seen == 2)
            assert router.backends[backend_id(busy)].inflight == 2
            release.set()
            for response in await asyncio.gather(*jobs):
                assert response.headers["x-repro-backend"] == backend_id(busy)
            assert counter(router, "router.spills") == 0
            assert counter(router, "router.skips.down") == 0
            assert counter(router, "router.sticky.hits") == 2
            await assert_inflight_settles(router)
        await busy.stop()

    asyncio.run(body())


@pytest.mark.parametrize("outcome", ["success", "5xx-failover", "connect-error", "504"])
def test_inflight_counts_return_to_zero_after_each_outcome(outcome):
    async def body():
        survivor = FakeBackend()
        await survivor.start()
        fakes = [survivor]
        if outcome == "success":
            home = (survivor.host, survivor.port)
        elif outcome == "connect-error":
            home = await unused_address()
        else:
            status = 500 if outcome == "5xx-failover" else 504
            fakes.append(FakeBackend(status=status, body={"error": outcome}))
            home = await fakes[-1].start()
        backends = list(dict.fromkeys([home, (survivor.host, survivor.port)]))
        async with running_router(backends) as (router, client):
            source = homed_source(router, f"{home[0]}:{home[1]}")
            response = await client.submit(payload_for(source))
            assert response.status == (504 if outcome == "504" else 200)
            failed_over = outcome in ("5xx-failover", "connect-error")
            assert counter(router, "router.failovers") == int(failed_over)
            await assert_inflight_settles(router)
        for fake in fakes:
            await fake.stop()

    asyncio.run(body())


def test_inflight_count_returns_to_zero_when_the_client_leaves_mid_relay():
    async def body():
        release = asyncio.Event()
        held = FakeBackend(hold=release)
        await held.start()
        async with running_router([(held.host, held.port)]) as (router, client):
            envelope = json.dumps(payload_for()).encode()
            _, writer = await asyncio.open_connection(client.host, client.port)
            writer.write(
                b"POST /v1/jobs HTTP/1.1\r\nHost: router\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(envelope) + envelope
            )
            await writer.drain()
            await eventually(lambda: held.jobs_seen == 1)
            assert router.backends[backend_id(held)].inflight == 1
            writer.close()
            await writer.wait_closed()
            release.set()
            await assert_inflight_settles(router)
            # The relay ended cleanly: the next job is served.
            response = await client.submit(payload_for())
            assert response.status == 200
            await assert_inflight_settles(router)
        await held.stop()

    asyncio.run(body())


def test_healthz_and_metrics_report_each_backends_inflight():
    async def body():
        release = asyncio.Event()
        held = FakeBackend(hold=release)
        await held.start()
        held_id = backend_id(held)
        async with running_router([(held.host, held.port)]) as (router, client):
            job = asyncio.ensure_future(client.submit(payload_for()))
            await eventually(lambda: held.jobs_seen == 1)
            health = (await client.get("/healthz")).json()
            assert health["backends"][held_id]["inflight"] == 1
            metrics = (await client.get("/metrics")).json()
            assert metrics["backends"][held_id]["inflight"] == 1
            prometheus = await client.request(
                "GET", "/metrics", headers={"Accept": "text/plain"}
            )
            text = prometheus.body.decode()
            assert "# TYPE repro_router_backend_inflight gauge" in text
            assert f'repro_router_backend_inflight{{backend="{held_id}"}} 1' in text
            release.set()
            await job
            await assert_inflight_settles(router)
            health = (await client.get("/healthz")).json()
            assert health["backends"][held_id]["inflight"] == 0
        await held.stop()

    asyncio.run(body())


class TestHealthTracker:
    def make(self, down_after=2):
        state = BackendState("127.0.0.1", 9999)
        tracker = HealthTracker({state.id: state}, down_after=down_after)
        return tracker, state

    def test_ready_probe_keeps_healthy(self):
        tracker, state = self.make()
        tracker.apply_probe(state, 200, {"ready": True})
        assert state.status == HEALTHY
        assert state.strikes == 0

    def test_draining_is_immediate(self):
        tracker, state = self.make()
        tracker.apply_probe(state, 503, {"ready": False, "reason": "draining"})
        assert state.status == DRAINING
        assert state.transitions == 1

    def test_down_needs_consecutive_strikes(self):
        tracker, state = self.make(down_after=2)
        tracker.apply_probe(state, None, None, error="ConnectionRefusedError")
        assert state.status == HEALTHY
        tracker.apply_probe(state, None, None, error="ConnectionRefusedError")
        assert state.status == DOWN

    def test_healthy_answer_rehabilitates(self):
        tracker, state = self.make(down_after=1)
        tracker.apply_probe(state, None, None, error="TimeoutError")
        assert state.status == DOWN
        tracker.apply_probe(state, 200, {"ready": True})
        assert state.status == HEALTHY
        assert state.strikes == 0

    def test_one_blip_does_not_evict(self):
        tracker, state = self.make(down_after=2)
        tracker.apply_probe(state, None, None, error="TimeoutError")
        tracker.apply_probe(state, 200, {"ready": True})
        tracker.apply_probe(state, None, None, error="TimeoutError")
        assert state.status == HEALTHY

    def test_not_ready_strikes(self):
        tracker, state = self.make(down_after=2)
        for _ in range(2):
            tracker.apply_probe(state, 503, {"ready": False, "reason": "circuit-open"})
        assert state.status == DOWN

    def test_note_draining_from_dispatch(self):
        tracker, state = self.make()
        tracker.note_draining(state)
        assert state.status == DRAINING
        assert tracker.counts() == {HEALTHY: 0, DRAINING: 1, DOWN: 0}

    def test_dispatch_failures_strike_and_a_success_clears(self):
        tracker, state = self.make(down_after=2)
        tracker.note_failure(state)
        tracker.note_success(state)
        tracker.note_failure(state)
        assert state.status == HEALTHY
        assert state.failures_total == 2
        tracker.note_failure(state)
        assert state.status == DOWN
        assert state.failures_total == 3


def test_print_plan_reports_fingerprint_and_backend(tmp_path, capsys):
    module = tmp_path / "program.c"
    module.write_text(PROGRAM)
    rc = router_main(
        [
            "--print-plan",
            str(module),
            "--backend",
            "127.0.0.1:9001",
            "--backend",
            "127.0.0.1:9002",
            "--backend",
            "127.0.0.1:9003",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "key " + routing_key({"kind": "minic", "source": PROGRAM})
    assert lines[1].startswith("backend 127.0.0.1:")
    assert lines[2].startswith("failover ")
    assert len(lines[2].split(" -> ")) == 2


def test_print_plan_names_the_second_choice_as_spill_target(tmp_path, capsys):
    module = tmp_path / "program.c"
    module.write_text(PROGRAM)
    backends = ["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"]
    argv = ["--print-plan", str(module)]
    for address in backends:
        argv += ["--backend", address]
    assert router_main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    order = hrw_order(routing_key({"kind": "minic", "source": PROGRAM}), backends)
    assert lines[1] == f"backend {order[0]}"
    assert lines[2] == "failover " + " -> ".join(order[1:])
    assert lines[3].startswith(f"spill {order[1]} ")
    # One backend has nowhere to spill to.
    assert router_main(["--print-plan", str(module), "--backend", backends[0]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [lines[0], f"backend {backends[0]}"]


def test_print_plan_missing_file_is_a_config_error(tmp_path, capsys):
    rc = router_main(
        ["--print-plan", str(tmp_path / "absent.c"), "--backend", "a:1"]
    )
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_router_config_rejects_bad_shapes():
    with pytest.raises(ValueError):
        RouterConfig([])
    with pytest.raises(ValueError):
        RouterConfig([("a", 1), ("a", 1)])
    with pytest.raises(ValueError):
        RouterConfig([("a", 1)], down_after=0)
