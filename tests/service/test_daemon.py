"""In-process end-to-end tests of the HTTP daemon.

A real listener on a real socket, driven by raw asyncio connections in
the same loop — covering routing, structured rejections, deadlines,
load shedding, the circuit breaker, streaming, and graceful drain.
"""

import asyncio
import contextlib
import json
import threading
import time

import pytest

from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.profile.interp import Interpreter
from repro.promotion.pipeline import PromotionPipeline
from repro.service.config import ServiceConfig
from repro.service.daemon import PromotionDaemon
from repro.service.jobs import JobRequest
from repro.service.router import PromotionRouter, RouterConfig

PROGRAM = """
int total = 0;
int bump(int k) { total += k; return total; }
int main() {
    for (int i = 0; i < 40; i++) bump(i);
    print(total);
    return total % 251;
}
"""

BUSY_PROGRAM = """
int sink = 0;
int main() {
    for (int i = 0; i < 800; i++) {
        for (int j = 0; j < 300; j++) sink += j;
    }
    return sink % 17;
}
"""


def reference(source):
    module = compile_source(source)
    PromotionPipeline(entry="main", args=[]).run(module)
    run = Interpreter(module).run("main", [])
    return (
        print_module(module),
        [" ".join(str(v) for v in values) for values in run.output],
        run.return_value & 0xFF,
    )


@contextlib.asynccontextmanager
async def running_daemon(**overrides):
    daemon = PromotionDaemon(ServiceConfig(**overrides))
    host, port = await daemon.start()
    try:
        yield daemon, host, port
    finally:
        await daemon.drain_and_stop()


@pytest.fixture(params=["daemon", "router"])
def front(request):
    """Both HTTP fronts behind one shape: ``front(**edge)`` runs a
    daemon with those edge settings, or a router with them in front of
    a default daemon, and yields its (host, port)."""

    @contextlib.asynccontextmanager
    async def run(**edge):
        if request.param == "daemon":
            async with running_daemon(workers=1, **edge) as (_, host, port):
                yield host, port
            return
        async with running_daemon(workers=1) as (_, backend_host, backend_port):
            router = PromotionRouter(
                RouterConfig(
                    [(backend_host, backend_port)], poll_interval_s=30.0, **edge
                )
            )
            host, port = await router.start()
            try:
                yield host, port
            finally:
                await router.drain_and_stop()

    return run


async def exchange(host, port, raw):
    """Send raw request bytes; returns (status, lowercase headers, body
    bytes) once the server closes the connection."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    data = await asyncio.wait_for(reader.read(-1), timeout=30)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return int(lines[0].split(" ", 2)[1]), headers, body


async def request(host, port, method, path, body=None, raw_body=None):
    """One HTTP/1.1 exchange; returns (status, decoded-JSON-or-lines)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = raw_body
    if payload is None:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    writer.write(head + payload)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b" ", 2)[1])
    if b"application/x-ndjson" in head_bytes:
        return status, [
            json.loads(line)
            for line in body_bytes.decode("utf-8").splitlines()
            if line.strip()
        ]
    return status, json.loads(body_bytes) if body_bytes else None


def post_job(host, port, source, options=None, path="/v1/jobs"):
    payload = {"kind": "minic", "source": source}
    if options:
        payload["options"] = options
    return request(host, port, "POST", path, body=payload)


def test_health_ready_metrics():
    async def body():
        async with running_daemon(workers=1) as (daemon, host, port):
            status, doc = await request(host, port, "GET", "/healthz")
            assert status == 200
            assert doc["status"] == "ok"
            assert doc["breaker"]["state"] == "closed"
            assert doc["admission"]["capacity"] == 1
            assert doc["engine"]["jobs_total"] == 0

            status, doc = await request(host, port, "GET", "/readyz")
            assert status == 200
            assert doc == {"ready": True}

            status, doc = await request(host, port, "GET", "/metrics")
            assert status == 200
            assert set(doc) == {"admission", "breaker", "engine"}
        assert daemon.drained_clean is True

    asyncio.run(body())


def test_job_is_byte_identical_and_then_cached():
    ir, output, rv = reference(PROGRAM)

    async def body():
        async with running_daemon(workers=1) as (_, host, port):
            status, doc = await post_job(host, port, PROGRAM)
            assert status == 200
            assert doc["status"] == "ok"
            assert doc["ir"] == ir
            assert doc["output"] == output
            assert doc["return_value"] == rv
            assert doc["cached"] is False

            status, doc = await post_job(host, port, PROGRAM)
            assert status == 200
            assert doc["cached"] is True
            assert doc["ir"] == ir

    asyncio.run(body())


def test_structured_rejections():
    async def body():
        async with running_daemon(workers=1) as (_, host, port):
            status, doc = await request(host, port, "GET", "/nope")
            assert status == 404 and doc["error"] == "not-found"

            status, doc = await request(
                host, port, "POST", "/v1/jobs", raw_body=b"{not json"
            )
            assert status == 400 and doc["error"] == "invalid-job"

            status, doc = await post_job(
                host, port, PROGRAM, options={"warp": 9}
            )
            assert status == 400 and "unknown job option" in doc["message"]

            status, doc = await post_job(host, port, "int main( {")
            assert status == 422 and doc["error"] == "invalid-source"

            status, doc = await request(
                host, port, "PUT", "/v1/jobs", body={"source": PROGRAM}
            )
            assert status == 404

    asyncio.run(body())


def test_oversized_body_bounces_with_413(front):
    async def body():
        async with front(max_body_bytes=64) as (host, port):
            status, doc = await post_job(host, port, PROGRAM)
            assert status == 413
            assert doc["error"] == "payload-too-large"

    asyncio.run(body())


def test_malformed_request_line_is_a_400(front):
    async def body():
        async with front() as (host, port):
            status, _, raw = await exchange(host, port, b"GARBAGE\r\n\r\n")
            assert status == 400
            assert json.loads(raw)["error"] == "invalid-job"

    asyncio.run(body())


def test_body_that_never_arrives_is_a_408(front):
    async def body():
        async with front(body_timeout_s=0.2) as (host, port):
            head = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
            status, _, raw = await exchange(host, port, head)
            assert status == 408
            assert json.loads(raw)["error"] == "request-timeout"

    asyncio.run(body())


def test_metrics_answer_prometheus_text_on_accept(front):
    async def body():
        async with front() as (host, port):
            status, headers, raw = await exchange(
                host,
                port,
                b"GET /metrics HTTP/1.1\r\nAccept: text/plain\r\n\r\n",
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            assert b"# TYPE " in raw

    asyncio.run(body())


def test_deadline_exceeded_is_a_504():
    async def body():
        async with running_daemon(workers=1, drain_grace_s=30.0) as (
            daemon,
            host,
            port,
        ):
            status, doc = await post_job(
                host,
                port,
                BUSY_PROGRAM,
                options={"deadline_s": 0.05, "max_steps": 5_000_000},
            )
            assert status == 504
            assert doc["error"] == "deadline-exceeded"
            # The abandoned thread must finish and accounting recover
            # before drain, or shutdown would block on it.
            while daemon.engine.abandoned:
                await asyncio.sleep(0.05)

    asyncio.run(body())


def test_readiness_follows_abandoned_threads_not_a_busy_pool(monkeypatch):
    # A pool whose every thread runs a job inside its deadline is busy,
    # not wedged; it is wedged once every thread is held by an abandoned
    # job, and ready again once those threads drain.
    release = threading.Event()
    entered = []

    async def body():
        async with running_daemon(workers=2, drain_grace_s=30.0) as (daemon, _, _):
            engine = daemon.engine
            real = engine._run_pipeline

            def blocked(job, deadline_s, job_id, started, observability=None):
                entered.append(job_id)
                release.wait(30.0)
                return real(job, deadline_s, job_id, started, observability)

            monkeypatch.setattr(engine, "_run_pipeline", blocked)
            jobs = [
                asyncio.ensure_future(
                    engine.run_job(JobRequest("minic", PROGRAM), 30.0, f"job-{i}")
                )
                for i in range(engine.workers)
            ]
            deadline = time.monotonic() + 30.0
            while len(entered) < engine.workers and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert len(entered) == engine.workers
            assert await daemon.readiness() == (200, {"ready": True})
            for job in jobs:
                job.cancel()
            await asyncio.gather(*jobs, return_exceptions=True)
            assert engine.abandoned == engine.workers
            assert await daemon.readiness() == (
                503,
                {"ready": False, "reason": "worker-pool-wedged"},
            )
            release.set()
            deadline = time.monotonic() + 30.0
            while engine.abandoned and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            assert engine.abandoned == 0
            assert await daemon.readiness() == (200, {"ready": True})

    try:
        asyncio.run(body())
    finally:
        release.set()


def test_burst_sheds_with_429_and_retry_after():
    async def body():
        async with running_daemon(workers=1, max_queue=1) as (_, host, port):
            # Distinct sources defeat the result cache so every job
            # really occupies the single worker for a while.
            sources = [
                BUSY_PROGRAM.replace("% 17", f"% {19 + i}") for i in range(4)
            ]
            outcomes = await asyncio.gather(
                *(post_job(host, port, src) for src in sources)
            )
            statuses = sorted(status for status, _ in outcomes)
            assert 200 in statuses
            assert 429 in statuses
            for status, doc in outcomes:
                if status == 429:
                    assert doc["error"] == "overloaded"
                    assert doc["retry_after_s"] > 0

    asyncio.run(body())


def test_breaker_opens_after_a_crash_storm():
    async def body():
        async with running_daemon(workers=1, breaker_threshold=2) as (
            daemon,
            host,
            port,
        ):
            def boom(job, deadline_s, job_id, started, observability=None):
                raise RuntimeError("engine on fire")

            daemon.engine._run_pipeline = boom
            for _ in range(2):
                status, doc = await post_job(host, port, PROGRAM)
                assert status == 500
                assert doc["error"] == "engine-failure"

            status, doc = await post_job(host, port, PROGRAM)
            assert status == 503
            assert doc["reason"] == "circuit-open"
            assert doc["retry_after_s"] > 0

            status, doc = await request(host, port, "GET", "/readyz")
            assert status == 503
            assert doc["reason"] == "circuit-open"

    asyncio.run(body())


def test_streaming_emits_spans_then_the_result():
    ir, output, rv = reference(PROGRAM)

    async def body():
        async with running_daemon(workers=1) as (_, host, port):
            status, lines = await post_job(
                host, port, PROGRAM, path="/v1/jobs?stream=1"
            )
            assert status == 200
            assert lines, "stream produced no events"
            spans = [line for line in lines if line["event"] == "span"]
            assert spans, "stream carried no span events"
            final = lines[-1]
            assert final["event"] == "result"
            assert final["ir"] == ir
            assert final["output"] == output
            assert final["return_value"] == rv
            assert final["cached"] is False

    asyncio.run(body())


def test_streaming_error_is_the_final_event():
    async def body():
        async with running_daemon(workers=1) as (_, host, port):
            status, lines = await post_job(
                host, port, "int main( {", path="/v1/jobs?stream=1"
            )
            assert status == 200  # the head was sent before the job ran
            assert lines[-1]["event"] == "error"
            assert lines[-1]["error"] == "invalid-source"

    asyncio.run(body())


async def traced_request(host, port, path, body, traceparent):
    """POST with a ``traceparent`` header; returns (status, response
    headers as a lowercase dict, decoded JSON or NDJSON lines)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"traceparent: {traceparent}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    writer.write(head + payload)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    head_lines = head_bytes.decode("ascii").split("\r\n")
    status = int(head_lines[0].split(" ", 2)[1])
    headers = {}
    for line in head_lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    if "ndjson" in headers.get("content-type", ""):
        decoded = [
            json.loads(line)
            for line in body_bytes.decode("utf-8").splitlines()
            if line.strip()
        ]
    else:
        decoded = json.loads(body_bytes) if body_bytes else None
    return status, headers, decoded


def test_traceparent_is_echoed_on_plain_jobs():
    trace_id = "ab" * 16
    header = f"00-{trace_id}-{'cd' * 8}-01"

    async def body():
        async with running_daemon(workers=1) as (_, host, port):
            status, headers, doc = await traced_request(
                host, port, "/v1/jobs", {"kind": "minic", "source": PROGRAM}, header
            )
            assert status == 200
            assert headers["x-repro-trace-id"] == trace_id
            assert doc["trace_id"] == trace_id

            # A rejection still correlates: the echo header survives.
            status, headers, doc = await traced_request(
                host, port, "/v1/jobs", {"kind": "minic", "source": "  "}, header
            )
            assert status == 400
            assert headers["x-repro-trace-id"] == trace_id

    asyncio.run(body())


def test_streaming_trace_is_one_connected_tree_under_the_callers_id():
    trace_id = "12" * 16
    caller_span = "fe" * 8
    header = f"00-{trace_id}-{caller_span}-01"

    async def body():
        async with running_daemon(workers=1) as (_, host, port):
            status, headers, lines = await traced_request(
                host,
                port,
                "/v1/jobs?stream=1",
                {"kind": "minic", "source": PROGRAM},
                header,
            )
            assert status == 200
            assert headers["x-repro-trace-id"] == trace_id

            spans = [line for line in lines if line["event"] == "span"]
            roots = [s for s in spans if s["parent"] is None]
            assert len(roots) == 1, "streamed trace must have one root span"
            root = roots[0]
            assert root["name"] == "daemon:job"
            assert root["attrs"]["trace_id"] == trace_id
            assert root["attrs"]["parent_span_id"] == caller_span
            # Every root-stamped span belongs to the caller's trace.
            stamped = {
                s["attrs"]["trace_id"] for s in spans if "trace_id" in s["attrs"]
            }
            assert stamped == {trace_id}

            final = lines[-1]
            assert final["event"] == "result"
            assert final["trace_id"] == trace_id

    asyncio.run(body())


def test_drain_refuses_new_connections_and_reports_clean():
    async def body():
        async with running_daemon(workers=1) as (daemon, host, port):
            status, _ = await post_job(host, port, PROGRAM)
            assert status == 200
            await daemon.drain_and_stop()
            assert daemon.drained_clean is True
            assert daemon.health()["status"] == "draining"
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(host, port)
            # Draining twice is idempotent.
            await daemon.drain_and_stop()
            assert daemon.drained_clean is True

    asyncio.run(body())
