"""End-to-end service smoke: boot, abuse, verify, drain.

``python -m repro.service.smoke`` boots a real daemon subprocess and
drives the full robustness story against it:

1. health and readiness answer;
2. a concurrent batch — healthy jobs, one poisoned job (worker-level
   chaos ``crash=1.0`` on a named function → quarantine, degraded), one
   over-deadline job (must come back 504, never hang), and one program
   that traps at run time (a client fault: 4xx, the daemon stays
   ready);
3. a burst past the admission bound — at least one 429 with a
   ``retry_after_s`` hint and at least one success;
4. optionally, seeded service-level chaos traffic (``--chaos``):
   dropped connections, slow-loris bodies, mid-stream disconnects,
   malformed payloads — the daemon must survive all of it;
5. the byte-identity invariant: every *completed* job's IR, printed
   output, and return value equal a fresh serial in-process run of the
   same payload (degraded jobs must still match on observable
   behaviour — quarantine is sound by construction);
6. SIGTERM → clean drain, exit 0, and ``killpg`` proves no orphaned
   worker processes survived.

``--artifacts-dir DIR`` tees the daemon's stderr to
``DIR/daemon-stderr.log`` as it happens and captures one streaming
job's NDJSON span feed to ``DIR/spans.ndjson`` — the diagnostics CI
uploads when a smoke run fails, so a hung run is debuggable from the
CI UI instead of leaving nothing behind.

Exit codes: 0 all checks passed, 1 a check failed, 2 setup trouble.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.service.chaos import ServiceChaosConfig
from repro.service.client import ChaosTraffic, Response, ServiceClient
from repro.service.cluster import ServiceProcess

HEALTHY_PROGRAM = """
int step(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i++) { s = s + i * 2 - 1; }
    return s;
}
int main() {
    int t;
    t = step(3000);
    print(t);
    return t % 7;
}
"""

SECOND_PROGRAM = """
int g;
int work(int n) {
    int i; int acc;
    acc = g;
    for (i = 0; i < n; i++) { acc = acc + i; g = acc; }
    return acc;
}
int main() {
    int r;
    r = work(2000);
    print(r); print(g);
    return r % 5;
}
"""

HEAVY_PROGRAM = """
int main() {
    int i; int j; int s;
    s = 0;
    for (i = 0; i < 2000; i++) {
        for (j = 0; j < 400; j++) { s = s + i - j; }
    }
    print(s);
    return 0;
}
"""


#: Reads far past ``a``, so the interpreter traps ("expected integer").
TRAPPING_PROGRAM = (
    "int main() { int *p; int a; p = &a; a = 3; return *(p + 100000); }"
)


def healthy_payload(program: str = HEALTHY_PROGRAM) -> Dict[str, object]:
    return {"kind": "minic", "source": program}


def poisoned_payload() -> Dict[str, object]:
    """Worker-level chaos at rate 1.0 on ``step``: every attempt dies,
    the supervisor quarantines it, the job completes degraded."""
    return {
        "kind": "minic",
        "source": HEALTHY_PROGRAM,
        "options": {"retries": 1, "chaos": "crash=1.0,only=step,seed=1"},
    }


def over_deadline_payload() -> Dict[str, object]:
    return {
        "kind": "minic",
        "source": HEAVY_PROGRAM,
        "options": {"deadline_s": 0.2, "max_steps": 3_000_000},
    }


def fresh_serial_run(payload: Dict[str, object]) -> Tuple[str, List[str], int]:
    """The reference the byte-identity invariant is stated against: a
    brand-new serial pipeline run in this process."""
    from repro.frontend.lower import compile_source
    from repro.ir.printer import print_module
    from repro.profile.interp import Interpreter
    from repro.promotion.pipeline import PromotionPipeline

    entry = payload.get("entry", "main")
    args = payload.get("args", [])
    module = compile_source(payload["source"])
    PromotionPipeline(entry=entry, args=args).run(module)
    run = Interpreter(module).run(entry, args)
    output = [" ".join(str(v) for v in values) for values in run.output]
    return print_module(module), output, run.return_value & 0xFF


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


class DaemonProcess(ServiceProcess):
    """The daemon under test: a :class:`ServiceProcess` with the smoke
    run's fixed service shape (2 workers, a 3-slot queue, a 1.5s
    slow-loris window) baked into the argv."""

    def __init__(
        self,
        extra_args: Optional[List[str]] = None,
        stderr_path: Optional[str] = None,
    ) -> None:
        super().__init__(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--workers",
                "2",
                "--max-queue",
                "3",
                "--drain-grace",
                "20",
                "--body-timeout",
                "1.5",
            ]
            + list(extra_args or []),
            name="daemon",
            stderr_path=stderr_path,
        )

    def assert_no_orphans(self) -> None:
        try:
            super().assert_no_orphans()
        except AssertionError as exc:
            raise SmokeFailure(str(exc)) from None


def _result_doc(response: Response) -> Dict[str, object]:
    check(
        response.status == 200,
        f"expected 200, got {response.status}: {response.body[:200]!r}",
    )
    doc = response.json()
    check(isinstance(doc, dict), "job response is not a JSON object")
    return doc


def assert_byte_identical(
    doc: Dict[str, object], payload: Dict[str, object], where: str
) -> None:
    ir, output, return_value = fresh_serial_run(payload)
    check(doc["ir"] == ir, f"{where}: promoted IR differs from a fresh serial run")
    check(doc["output"] == output, f"{where}: printed output differs")
    check(doc["return_value"] == return_value, f"{where}: return value differs")


async def run_checks(
    client: ServiceClient,
    chaos: Optional[ServiceChaosConfig],
    requests: int,
    spans_path: Optional[str] = None,
) -> None:
    # 1. Liveness and readiness.
    health = (await client.get("/healthz")).json()
    check(health["status"] == "ok", f"healthz says {health['status']!r}")
    ready = await client.get("/readyz")
    check(ready.status == 200, f"readyz says {ready.status}")
    print("smoke: health/readiness ok")

    # 2. Concurrent batch: healthy + poisoned + over-deadline + trapping.
    healthy = healthy_payload()
    second = healthy_payload(SECOND_PROGRAM)
    batch = await asyncio.gather(
        client.submit(healthy),
        client.submit(second),
        client.submit(poisoned_payload()),
        client.submit(over_deadline_payload()),
        client.submit(healthy_payload(TRAPPING_PROGRAM)),
    )
    healthy_doc = _result_doc(batch[0])
    second_doc = _result_doc(batch[1])
    assert_byte_identical(healthy_doc, healthy, "healthy job")
    assert_byte_identical(second_doc, second, "second healthy job")

    poisoned_resp = batch[2]
    check(
        poisoned_resp.status == 200,
        f"poisoned job should complete degraded, got {poisoned_resp.status}: "
        f"{poisoned_resp.body[:200]!r}",
    )
    poisoned_doc = poisoned_resp.json()
    check(poisoned_doc["degraded"], "poisoned job did not report degraded")
    # The designed path: every supervised attempt on 'step' crashes, the
    # supervisor quarantines it.  If the worker cannot start, promotion
    # falls back to in process — worker-level chaos then never fires
    # and the quarantine list is honestly empty; the job is still
    # degraded and behaviour-preserving.  Any *other* function in the
    # list is a real bug either way.
    check(
        poisoned_doc["quarantined"] in (["step"], []),
        f"poisoned job quarantined {poisoned_doc['quarantined']}, expected 'step'",
    )
    # Quarantine keeps pre-promotion IR, so only observable behaviour —
    # not the IR text — must match the fresh serial run.
    _, ref_output, ref_return = fresh_serial_run(healthy)
    check(poisoned_doc["output"] == ref_output, "poisoned job output diverged")
    check(poisoned_doc["return_value"] == ref_return, "poisoned job return diverged")

    deadline_resp = batch[3]
    check(
        deadline_resp.status == 504,
        f"over-deadline job should 504, got {deadline_resp.status}: "
        f"{deadline_resp.body[:200]!r}",
    )
    check(
        deadline_resp.json()["error"] == "deadline-exceeded",
        "over-deadline job error code is wrong",
    )

    trap_resp = batch[4]
    check(
        400 <= trap_resp.status < 500,
        f"trapping program should be a 4xx client fault, got {trap_resp.status}: "
        f"{trap_resp.body[:200]!r}",
    )
    ready = await client.get("/readyz")
    check(ready.status == 200, f"readyz says {ready.status} after the batch")
    print(
        "smoke: batch ok (healthy byte-identical, poisoned degraded, 504 on time, "
        "trap 4xx)"
    )

    # 2b. One streaming job, captured as an NDJSON artifact: spans then
    # the final result.  Written before the burst/chaos phases so a
    # later hang still leaves a span timeline to upload.
    if spans_path is not None:
        events = await client.submit(healthy_payload(), stream=True)
        check(bool(events), "streaming job produced no NDJSON events")
        check(
            events[-1].get("event") == "result",
            f"streaming job's last event is {events[-1].get('event')!r}",
        )
        with open(spans_path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        print(f"smoke: captured {len(events)} NDJSON events to {spans_path}")

    # 3. Burst past the admission bound: expect shedding AND progress.
    burst = await asyncio.gather(
        *[client.submit(healthy_payload()) for _ in range(10)]
    )
    statuses = [r.status for r in burst]
    shed = [r for r in burst if r.status == 429]
    completed = [r for r in burst if r.status == 200]
    check(shed, f"burst produced no 429s (statuses: {statuses})")
    check(completed, f"burst produced no successes (statuses: {statuses})")
    for rejection in shed:
        doc = rejection.json()
        check(doc["error"] == "overloaded", "429 body missing structured code")
        check(doc.get("retry_after_s", 0) > 0, "429 body missing retry_after_s")
    for response in completed:
        assert_byte_identical(response.json(), healthy, "burst job")
    print(
        f"smoke: burst ok ({len(shed)} shed with retry-after, "
        f"{len(completed)} completed byte-identical)"
    )

    # 4. Seeded service-level chaos traffic.
    if chaos is not None and chaos.enabled:
        traffic = ChaosTraffic(client, chaos)
        for index in range(requests):
            response = await traffic.send(index, healthy_payload())
            if isinstance(response, Response) and traffic.chaos.plan(index) in (
                None,
                "malformed",
            ):
                if traffic.chaos.plan(index) == "malformed":
                    check(
                        400 <= response.status < 500,
                        f"malformed request {index} got {response.status}",
                    )
                elif response.status == 200:
                    assert_byte_identical(
                        response.json(), healthy_payload(), f"chaos request {index}"
                    )
                else:
                    check(
                        response.status in (429, 503),
                        f"clean request {index} got {response.status}",
                    )
        health = (await client.get("/healthz")).json()
        check(
            health["status"] == "ok", "daemon unhealthy after chaos traffic"
        )
        final = await client.submit(healthy_payload())
        assert_byte_identical(_result_doc(final), healthy_payload(), "post-chaos job")
        print(f"smoke: chaos ok (shapes sent: {traffic.sent})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service-smoke", description="service end-to-end smoke"
    )
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        help="service chaos spec, e.g. "
        "'drop=0.2,slow=0.15,disconnect=0.2,malformed=0.2,seed=77'",
    )
    parser.add_argument(
        "--requests", type=int, default=12, help="chaos traffic volume"
    )
    parser.add_argument(
        "--artifacts-dir",
        metavar="DIR",
        help="tee daemon stderr and one job's NDJSON span feed into DIR "
        "(the diagnostics CI uploads on failure)",
    )
    options = parser.parse_args(argv)

    chaos = None
    if options.chaos:
        try:
            chaos = ServiceChaosConfig.parse(options.chaos)
        except ValueError as exc:
            print(f"smoke: error: --chaos: {exc}", file=sys.stderr)
            return 2
        if chaos.slow_delay_s == 0.5:
            # Default trickle must outlast the daemon's 1.5s body window
            # across a whole body; 0.5s/16B chunks already does, but be
            # explicit for small payloads.
            chaos.slow_delay_s = 2.0

    stderr_path = spans_path = None
    if options.artifacts_dir:
        try:
            os.makedirs(options.artifacts_dir, exist_ok=True)
        except OSError as exc:
            print(
                f"smoke: error: cannot create {options.artifacts_dir}: {exc}",
                file=sys.stderr,
            )
            return 2
        stderr_path = os.path.join(options.artifacts_dir, "daemon-stderr.log")
        spans_path = os.path.join(options.artifacts_dir, "spans.ndjson")

    daemon_extra = (
        ["--artifacts-dir", options.artifacts_dir]
        if options.artifacts_dir
        else None
    )
    daemon = DaemonProcess(extra_args=daemon_extra, stderr_path=stderr_path)
    try:
        daemon.boot()
    except (RuntimeError, OSError) as exc:
        print(f"smoke: error: {exc}", file=sys.stderr)
        daemon.kill()
        return 2
    print(f"smoke: daemon up at {daemon.host}:{daemon.port} (pid {daemon.proc.pid})")

    try:
        client = ServiceClient(daemon.host, daemon.port, timeout_s=120.0)
        asyncio.run(run_checks(client, chaos, options.requests, spans_path))

        rc = daemon.sigterm_and_wait()
        check(rc == 0, f"daemon exited {rc} after SIGTERM (want clean drain 0)")
        daemon.assert_no_orphans()
        print("smoke: drain ok (exit 0, no orphaned workers)")
    except SmokeFailure as exc:
        print(f"smoke: FAIL: {exc}", file=sys.stderr)
        daemon.kill()
        return 1
    except Exception as exc:  # noqa: BLE001 - report, don't hang CI
        print(f"smoke: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        daemon.kill()
        return 2
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
