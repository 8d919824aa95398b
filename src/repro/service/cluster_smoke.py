"""End-to-end smoke for the sharded tier: K daemons behind a router.

``python -m repro.service.cluster_smoke`` boots a real
:class:`~repro.service.cluster.LocalCluster` (three ``repro-serve``
instances by default) plus a ``repro-route`` front tier as genuine
subprocesses, then drives the eight SPECInt95-proxy workloads through
the router and checks the properties the sharding design promises:

1. **Byte identity through a hop.**  Every workload's response —
   promoted IR text, printed output, return value — matches a fresh
   serial run in this process, exactly as the single-daemon smoke
   demands.  A router in the path must be invisible to results.
2. **Two-choice placement.**  In the concurrent cold and warm waves
   every job lands on one of its first two HRW choices (via the
   ``X-Repro-Backend`` header) with no failover, and the router's
   counters agree: ``sticky.hits + spills == sticky.routed``.  Four
   concurrent jobs that share a home and a second choice stay on those
   two and spill at least once.  A sequential warm pass, on an idle
   router, lands 8 of 8 jobs at home.  After every wave each backend's
   in-flight count returns to 0.
3. **A job's own deadline is not a backend fault.**  Three
   over-deadline jobs each come back 504 ``deadline-exceeded`` from one
   backend with no failover, and the next healthy job is still served.
4. **Failover under loss.**  One backend is SIGTERMed in the middle of
   a concurrent wave; every job in the wave must still come back 200
   and byte-identical (a 429 or 5xx counts as a failed job), and a
   post-kill wave over the surviving shards succeeds too.  Four
   concurrent jobs whose home survives and whose second choice is the
   dead shard all stay home: a job never spills to an unhealthy shard.
5. **Clean teardown.**  The killed backend drains to exit 0, the rest
   of the cluster SIGTERMs to exit 0, and no process group leaks
   workers.

On top of byte identity, one streamed job runs under a caller-minted
trace: the router's relay span and the backend's span tree must all
carry that one ``trace_id``, parent-linked across the hop.

``--metrics-out`` writes the router's final ``/metrics`` document to a
file (CI uploads it as an artifact); ``--artifacts-dir`` tees every
process's stderr for post-mortem and becomes every process's flight
recorder dump directory.  Exit 0 on success, 1 on a failed check, 2 on
harness trouble.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.bench.workloads import ORDER, WORKLOADS
from repro.observability import TraceContext
from repro.service.client import Response, ServiceClient
from repro.service.cluster import LocalCluster
from repro.service.routing import hrw_order, routing_key
from repro.service.smoke import (
    SmokeFailure,
    check,
    fresh_serial_run,
    healthy_payload,
    over_deadline_payload,
)

#: Service shape for each backend.  Queues are deep enough that the
#: whole kill wave fits on the surviving shards — this harness proves
#: failover loses nothing; load shedding is the single-daemon smoke's
#: job (repro.service.smoke exercises the 429 path on purpose).
DAEMON_ARGS = ["--max-queue", "32", "--drain-grace", "30"]
ROUTER_ARGS = ["--poll-interval", "0.3", "--down-after", "2"]


def workload_payloads() -> List[Tuple[str, Dict[str, object]]]:
    return [
        (
            name,
            {
                "kind": "minic",
                "source": WORKLOADS[name].source,
                "entry": WORKLOADS[name].entry,
                "args": list(WORKLOADS[name].args),
            },
        )
        for name in ORDER
    ]


def _served_by(response: Response) -> str:
    backend = response.headers.get("x-repro-backend", "")
    check(bool(backend), "response is missing the X-Repro-Backend header")
    return backend


def _router_counter(doc: Dict[str, object], name: str) -> object:
    """One ``router.*`` counter from the router's ``/metrics`` document."""
    entry = doc["router"].get(name)
    return 0 if entry is None else entry.get("value", 0)


#: The counters a wave's placement is checked against.
_PLACEMENT_COUNTERS = (
    "router.sticky.routed",
    "router.sticky.hits",
    "router.spills",
    "router.failovers",
    "router.skips.down",
)


def _router_counters(doc: Dict[str, object]) -> Dict[str, int]:
    return {name: _router_counter(doc, name) for name in _PLACEMENT_COUNTERS}


def hrw_choices(payload: Dict[str, object], backend_ids: List[str]) -> List[str]:
    """The job's HRW order over ``backend_ids``, as every router computes it."""
    return hrw_order(routing_key(payload), backend_ids)


async def settled_inflight(client: ServiceClient, timeout_s: float = 5.0) -> None:
    """Each backend's in-flight count, from the router's ``/healthz``,
    must return to 0 once a wave has been answered.  A leaked count
    never returns, and would steer jobs away from its shard for good."""
    deadline = time.monotonic() + timeout_s
    while True:
        backends = (await client.get("/healthz")).json()["backends"]
        inflight = {b: doc["inflight"] for b, doc in backends.items()}
        if not any(inflight.values()):
            return
        check(
            time.monotonic() < deadline,
            f"in-flight counts never returned to 0: {inflight}",
        )
        await asyncio.sleep(0.05)


async def placed_wave(
    client: ServiceClient,
    payloads: List[Tuple[str, Dict[str, object]]],
    references: Dict[str, Tuple[str, List[str], int]],
    backend_ids: List[str],
    where: str,
) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Submit ``payloads`` concurrently and check the two-choice
    contract: byte identity, each job on one of its first two HRW
    choices, no failover, ``hits + spills == routed``, and in-flight
    counts back at 0.  Returns (name → serving backend, counter deltas)."""
    before = _router_counters((await client.get("/metrics")).json())
    responses = await asyncio.gather(*(client.submit(p) for _, p in payloads))
    served = assert_wave_identical(responses, payloads, references, where)
    for name, payload in payloads:
        choices = hrw_choices(payload, backend_ids)[:2]
        check(
            served[name] in choices,
            f"{where}: {name} landed on {served[name]}, outside its two "
            f"HRW choices {choices}",
        )
    await settled_inflight(client)
    after = _router_counters((await client.get("/metrics")).json())
    delta = {name: after[name] - before[name] for name in after}
    check(
        delta["router.failovers"] == 0,
        f"{where}: {delta['router.failovers']} failovers on a healthy cluster",
    )
    routed = delta["router.sticky.routed"]
    hits, spills = delta["router.sticky.hits"], delta["router.spills"]
    check(
        routed == len(payloads) and hits + spills == routed,
        f"{where}: sticky.hits {hits} + spills {spills} != sticky.routed "
        f"{routed} ({len(payloads)} jobs)",
    )
    return served, delta


def shared_choice_payloads(
    name: str,
    payload: Dict[str, object],
    backend_ids: List[str],
    choices: Optional[List[str]] = None,
    count: int = 4,
) -> List[Tuple[str, Dict[str, object]]]:
    """``count`` whitespace variants of one program (each its own
    routing key, none in any result cache) whose first two HRW choices
    are ``choices`` — by default, those of the first variant found."""
    variants: List[Tuple[str, Dict[str, object]]] = []
    for pad in range(1, 2000):
        variant = dict(payload, source=str(payload["source"]) + "\n" * pad)
        first_two = hrw_choices(variant, backend_ids)[:2]
        if choices is None:
            choices = first_two
        if first_two == choices:
            variants.append((f"{name}+{pad}", variant))
            if len(variants) == count:
                return variants
    raise RuntimeError(f"no {count} variants of {name} share choices {choices}")


def assert_wave_identical(
    responses: List[Response],
    payloads: List[Tuple[str, Dict[str, object]]],
    references: Dict[str, Tuple[str, List[str], int]],
    where: str,
) -> Dict[str, str]:
    """Every response is a 200 whose result matches the fresh serial
    reference.  Returns workload name → serving backend id."""
    served: Dict[str, str] = {}
    for (name, _payload), response in zip(payloads, responses):
        check(
            response.status == 200,
            f"{where}: workload {name} got {response.status}: "
            f"{response.body[:200]!r}",
        )
        doc = response.json()
        ir, output, return_value = references[name]
        check(doc["ir"] == ir, f"{where}: {name} promoted IR differs")
        check(doc["output"] == output, f"{where}: {name} output differs")
        check(
            doc["return_value"] == return_value,
            f"{where}: {name} return value differs",
        )
        served[name] = _served_by(response)
    return served


async def run_checks(
    cluster: LocalCluster,
    client: ServiceClient,
    metrics_out: Optional[str],
) -> None:
    payloads = workload_payloads()
    references = {
        name: fresh_serial_run(payload) for name, payload in payloads
    }

    # 1. Router liveness: healthz sees every backend, readyz is 200.
    health = (await client.get("/healthz")).json()
    check(health["status"] == "ok", f"router healthz says {health['status']!r}")
    check(
        len(health["backends"]) == len(cluster.daemons),
        f"router tracks {len(health['backends'])} backends, "
        f"expected {len(cluster.daemons)}",
    )
    ready = await client.get("/readyz")
    check(ready.status == 200, f"router readyz says {ready.status}")
    print("cluster-smoke: router health/readiness ok")

    # 2. Cold pass: all eight workloads at once, byte-identical through
    # the hop, each on one of its two HRW choices.
    backend_ids = [d.address for d in cluster.daemons]
    cold_map, cold = await placed_wave(
        client, payloads, references, backend_ids, "cold pass"
    )
    spread = sorted(set(cold_map.values()))
    print(
        f"cluster-smoke: cold pass ok ({len(payloads)} workloads "
        f"byte-identical across {len(spread)} backends, "
        f"{cold['router.spills']} spilled to their second choice)"
    )

    # 3. Warm pass, concurrent: the same two-choice contract.
    _, warm = await placed_wave(client, payloads, references, backend_ids, "warm pass")
    print(
        f"cluster-smoke: warm pass ok ({warm['router.sticky.hits']} at home, "
        f"{warm['router.spills']} spilled to their second choice)"
    )

    # 3a. Warm pass, sequential: an idle router keeps every job home.
    before = _router_counters((await client.get("/metrics")).json())
    at_home = []
    for name, payload in payloads:
        response = await client.submit(payload)
        served = assert_wave_identical(
            [response], [(name, payload)], references, "sequential warm pass"
        )
        if served[name] == hrw_choices(payload, backend_ids)[0]:
            at_home.append(name)
    after = _router_counters((await client.get("/metrics")).json())
    spills = after["router.spills"] - before["router.spills"]
    check(
        len(at_home) == len(payloads) and spills == 0,
        f"sequential warm pass: {len(at_home)} of {len(payloads)} jobs at "
        f"home ({sorted(set(ORDER) - set(at_home))} were not), {spills} spills",
    )
    metrics = (await client.get("/metrics")).json()
    print(
        f"cluster-smoke: sequential warm pass ok ({len(at_home)} of "
        f"{len(payloads)} at home; stickiness_hit_rate "
        f"{metrics.get('stickiness_hit_rate')} over all waves)"
    )

    # 3b. A busy home spills to its second choice and nowhere else:
    # four concurrent jobs (fresh variants of the slowest workload)
    # that share both HRW choices.
    name, heavy = payloads[0]
    shared = shared_choice_payloads(name, heavy, backend_ids)
    _, delta = await placed_wave(
        client,
        shared,
        {n: fresh_serial_run(p) for n, p in shared},
        backend_ids,
        "shared-home wave",
    )
    check(
        delta["router.spills"] >= 1,
        "shared-home wave: four concurrent jobs with one home never spilled",
    )
    print(
        f"cluster-smoke: shared-home wave ok ({delta['router.spills']} of "
        f"{len(shared)} spilled to their second choice, none further)"
    )

    # 3c. Over-deadline jobs: a 504 is the job's own outcome, relayed
    # from the one backend that ran it.  No failover, and no backend is
    # held against it — the next healthy job is served.
    before = _router_counter((await client.get("/metrics")).json(), "router.failovers")
    for _ in range(3):
        response = await client.submit(over_deadline_payload())
        check(
            response.status == 504
            and response.json().get("error") == "deadline-exceeded",
            f"over-deadline job got {response.status}: {response.body[:200]!r}",
        )
        _served_by(response)
    after = _router_counter((await client.get("/metrics")).json(), "router.failovers")
    check(after == before, f"over-deadline jobs failed over ({before} -> {after})")
    healthy = [("healthy", healthy_payload())]
    assert_wave_identical(
        [await client.submit(healthy[0][1])],
        healthy,
        {"healthy": fresh_serial_run(healthy[0][1])},
        "after the deadline wave",
    )
    print("cluster-smoke: deadline wave ok (3 x 504, no failover, next job 200)")

    # 3d. One streaming job through the router: the NDJSON span
    # timeline must pass through intact, ending in the result event.
    events = await client.submit(payloads[0][1], stream=True)
    check(bool(events), "streaming job through router produced no events")
    check(
        events[-1].get("event") == "result",
        f"streamed job's last event is {events[-1].get('event')!r}",
    )
    print(f"cluster-smoke: streaming ok ({len(events)} NDJSON events relayed)")

    # 3e. End-to-end trace continuity: a caller-minted trace survives
    # the router hop into the backend, and every stamped span — the
    # router's relay span and the daemon/worker spans streamed back —
    # agrees on the one trace id, with the daemon's root span parented
    # on the router's span.
    trace = TraceContext.new()
    events = await client.submit(payloads[0][1], stream=True, trace=trace)
    spans = [e for e in events if e.get("event") == "span"]
    relay = [s for s in spans if s.get("name") == "router:relay"]
    roots = [s for s in spans if s.get("name") == "daemon:job"]
    check(len(relay) == 1, f"expected 1 router:relay span, got {len(relay)}")
    check(len(roots) == 1, f"expected 1 daemon:job span, got {len(roots)}")
    stamped = {
        s["attrs"]["trace_id"]
        for s in spans
        if isinstance(s.get("attrs"), dict) and s["attrs"].get("trace_id")
    }
    check(
        stamped == {trace.trace_id},
        f"trace ids across the hop: {sorted(stamped)}, "
        f"expected exactly {{{trace.trace_id!r}}}",
    )
    relay_span_id = relay[0]["attrs"].get("span_id")
    root_parent = roots[0]["attrs"].get("parent_span_id")
    check(
        bool(relay_span_id) and root_parent == relay_span_id,
        f"daemon:job parent_span_id {root_parent!r} does not link to "
        f"router:relay span_id {relay_span_id!r}",
    )
    check(
        events[-1].get("event") == "result"
        and events[-1].get("trace_id") == trace.trace_id,
        "streamed result event does not carry the caller's trace id",
    )
    print(
        f"cluster-smoke: trace continuity ok ({len(spans)} spans under "
        f"trace {trace.trace_id}, router span parents the backend tree)"
    )

    # 4. Kill a serving backend mid-wave: zero failed jobs.  The wave
    # starts, the sticky home of several workloads gets SIGTERM, and
    # every job must still return 200 byte-identical — served either by
    # the draining backend finishing its in-flight work or by the next
    # shard in HRW order.
    victim_address = cold_map[payloads[0][0]]
    victim_index = next(
        i for i, d in enumerate(cluster.daemons) if d.address == victim_address
    )
    wave = [
        asyncio.ensure_future(client.submit(p))
        for _, p in payloads + payloads  # two rounds: 16 in-flight jobs
    ]
    await asyncio.sleep(0.05)
    victim = cluster.stop_backend(victim_index)
    responses = await asyncio.gather(*wave)
    assert_wave_identical(
        responses, payloads + payloads, references, "kill wave"
    )
    rc = victim.wait(timeout_s=60.0)
    check(rc == 0, f"SIGTERMed backend exited {rc}, expected graceful 0")
    victim.assert_no_orphans()
    await settled_inflight(client)
    print(
        f"cluster-smoke: kill wave ok (backend {victim_address} drained to "
        f"exit 0, {len(wave)} jobs all byte-identical)"
    )

    # 5. Post-kill wave: the survivors own everything now; the dead
    # backend must not be offered new jobs.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        counts = (await client.get("/healthz")).json()["backend_counts"]
        if counts.get("healthy", 0) == len(cluster.daemons) - 1 and not (
            counts.get("draining", 0)
        ):
            break
        await asyncio.sleep(0.1)
    post = await asyncio.gather(*(client.submit(p) for _, p in payloads))
    post_map = assert_wave_identical(post, payloads, references, "post-kill")
    check(
        victim_address not in post_map.values(),
        f"dead backend {victim_address} was still offered jobs: {post_map}",
    )
    print(
        f"cluster-smoke: post-kill wave ok "
        f"({len(set(post_map.values()))} surviving backends serving)"
    )

    # 5a. Never a spill to an unhealthy shard: four concurrent jobs whose
    # home survived and whose second choice is the dead backend all
    # stay home, however busy it gets.
    survivor = next(b for b in backend_ids if b != victim_address)
    pinned = shared_choice_payloads(
        name, heavy, backend_ids, choices=[survivor, victim_address]
    )
    served, delta = await placed_wave(
        client,
        pinned,
        {n: fresh_serial_run(p) for n, p in pinned},
        backend_ids,
        "down-second-choice wave",
    )
    check(
        set(served.values()) == {survivor}
        and delta["router.spills"] == 0
        and delta["router.skips.down"] == 0,
        f"down-second-choice wave: served by {sorted(set(served.values()))}, "
        f"{delta['router.spills']} spills, "
        f"{delta['router.skips.down']} skips of the down shard",
    )
    print(
        f"cluster-smoke: down-second-choice wave ok ({len(pinned)} jobs "
        f"kept home on {survivor}, 0 spills)"
    )

    # 6. Final metrics snapshot for the CI artifact.
    doc = (await client.get("/metrics")).json()
    if metrics_out is not None:
        with open(metrics_out, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
        print(f"cluster-smoke: wrote router metrics to {metrics_out}")
    unrouted = _router_counter(doc, "router.jobs.unrouted")
    check(unrouted == 0, f"router reported {unrouted} unroutable jobs")
    print(
        "cluster-smoke: metrics ok "
        f"(failovers={_router_counter(doc, 'router.failovers')}, unrouted=0, "
        f"jobs={_router_counter(doc, 'router.jobs_total')})"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cluster-smoke",
        description="multi-instance service smoke: K daemons behind repro-route",
    )
    parser.add_argument("--backends", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the router's final /metrics document here",
    )
    parser.add_argument(
        "--artifacts-dir",
        metavar="DIR",
        help="tee every process's stderr into DIR and dump flight "
        "recorders there",
    )
    options = parser.parse_args(argv)

    daemon_args = list(DAEMON_ARGS)
    router_args = list(ROUTER_ARGS)
    if options.artifacts_dir:
        os.makedirs(options.artifacts_dir, exist_ok=True)
        # Point every process's crash flight recorder at the artifacts
        # dir so breaker trips, engine crashes, and drain dumps land
        # where CI collects them.
        daemon_args += ["--artifacts-dir", options.artifacts_dir]
        router_args += ["--artifacts-dir", options.artifacts_dir]
    cluster = LocalCluster(
        backends=options.backends,
        workers=options.workers,
        daemon_args=daemon_args,
        stderr_dir=options.artifacts_dir,
    )
    try:
        cluster.start()
        router = cluster.start_router(router_args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"cluster-smoke: boot error: {exc}", file=sys.stderr)
        cluster.kill()
        return 2
    print(
        f"cluster-smoke: {len(cluster.daemons)} backends up "
        f"({', '.join(d.address for d in cluster.daemons)}), "
        f"router at {router.address} (pid {router.pid})"
    )

    client = ServiceClient(router.host, router.port, timeout_s=60.0)
    try:
        asyncio.run(run_checks(cluster, client, options.metrics_out))
        exits = cluster.shutdown()
        bad = {name: code for name, code in exits.items() if code != 0}
        check(not bad, f"unclean shutdown exits: {bad}")
        router.assert_no_orphans()
        for daemon in cluster.daemons:
            daemon.assert_no_orphans()
    except SmokeFailure as exc:
        print(f"cluster-smoke: FAIL: {exc}", file=sys.stderr)
        cluster.kill()
        return 1
    except Exception as exc:  # noqa: BLE001 - report, don't hang CI
        print(
            f"cluster-smoke: error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        cluster.kill()
        return 2
    print("cluster-smoke: all checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
