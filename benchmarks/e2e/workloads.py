"""The four benchmark workloads.

Every workload is a closed loop driven from one process: a client sends
its next op only when its previous one has come back.  An op is one
program compiled and promoted — in process through ``compile_source`` and
``PromotionPipeline(entry=, args=).run``, or as one ``POST /v1/jobs`` to a
default ``repro-serve`` (optionally behind ``repro-route``) booted with
``ServiceProcess``.  Inputs come from the workload seed alone.  The
window runs for the given number of seconds (``paper-suite`` finishes
its round, so every proxy appears equally often); every output is
checked after the window, and a failed check counts the op as failed:

* ``paper-suite`` — the paper's eight SPECint95 proxies, round after
  round, order shuffled per round by the seed.  Interpreter-bound
  (profile plus re-execution).  Counts and behaviour are checked against
  ``expected_paper.json``.
* ``gen-cold`` — distinct generated programs, each compiled cold.
  Small, short-running programs, so compile-time layers dominate and
  interpreter work barely registers.  Behaviour is checked against the
  interpreter on the unpromoted program.
* ``serve-mix`` — one default daemon, two connections, 70% distinct
  generated programs and 30% a hot set of the proxies (sent once
  before the window, so hot requests can hit the result cache).
* ``serve-routed`` — the same requests through ``repro-route`` over two
  default daemons: the router hop, sticky routing, and two processes
  promoting at once.

Served responses must match the in-process IR byte for byte, and their
output must match the same references as the in-process workloads.
Every timing is taken as ``perf_counter`` stamps and converted to
reference seconds by :mod:`hostclock` once the run is over.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.profile.interp import Interpreter
from repro.promotion.pipeline import PromotionPipeline
from repro.service.client import ServiceClient
from repro.service.cluster import ServiceProcess

from benchmarks.e2e import hostclock, layers
from benchmarks.e2e.genprog import random_program

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_paper.json")
OUT_DIR = os.path.join(HERE, "out")
RUN_PY = os.path.join(HERE, "run.py")
TRACED_SERVE = os.path.join(HERE, "traced_serve.py")

NAMES = ("paper-suite", "gen-cold", "serve-mix", "serve-routed")
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3
#: Share of serve requests drawn from the hot set of proxies.
HOT_SHARE = 0.3
#: Concurrent client connections on the serve workloads.
CONNECTIONS = 2
#: Daemons behind the router on ``serve-routed``.
ROUTED_BACKENDS = 2
#: Peak memory is read once this many ops have completed (or at the
#: window's end if fewer did): the daemon's footprint grows with every
#: job it serves, so a fixed amount of work keeps the reading comparable.
MEMORY_OPS = 400
#: ``gen-cold`` quality is averaged over this many programs of the seed.
QUALITY_PROGRAMS = 1000
#: Seed of the one program ``gen-cold`` promotes before its window;
#: ``program_stream`` draws 64-bit seeds, so it can never draw this one.
WARMUP_SEED = 2**64
#: The counts ``expected_paper.json`` pins per proxy (Tables 1 and 2).
COUNT_KEYS = (
    "static_loads_before",
    "static_loads_after",
    "static_stores_before",
    "static_stores_after",
    "dynamic_loads_before",
    "dynamic_loads_after",
    "dynamic_stores_before",
    "dynamic_stores_after",
)

Item = Tuple[str, str]  # (key, source): a proxy name or "gen-<index>"


# -- inputs -------------------------------------------------------------------


def program_stream(seed: int) -> Iterator[str]:
    """Distinct generated programs, the same sequence for the same seed."""
    rng = random.Random(seed)
    seen = set()
    while True:
        source = random_program(rng.getrandbits(64))
        if source not in seen:
            seen.add(source)
            yield source


def paper_rounds(seed: int) -> Iterator[List[Item]]:
    """Rounds of the eight proxies, each round in a seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(ORDER)
        rng.shuffle(order)
        yield [(name, WORKLOADS[name].source) for name in order]


def generated(seed: int) -> Iterator[List[Item]]:
    for index, source in enumerate(program_stream(seed)):
        yield [(f"gen-{index}", source)]


def serve_requests(seed: int) -> Iterator[Item]:
    """The serve workloads' request sequence.  Hot requests walk the
    proxies in seeded rounds, so each one recurs before the daemon's
    64-entry result cache can evict it: drawn independently, a few
    proxies went unrequested long enough to be evicted, and the 10–20
    re-promotions per window that followed (each worth ten cold
    programs) set most of the run-to-run spread."""
    rng = random.Random(f"serve-{seed}")
    programs = generated(seed)
    hot = itertools.chain.from_iterable(paper_rounds(seed))
    while True:
        if rng.random() < HOT_SHARE:
            yield next(hot)
        else:
            yield next(programs)[0]


def entry_of(key: str) -> Tuple[str, List[int]]:
    workload = WORKLOADS.get(key)
    if workload is None:
        return "main", []
    return workload.entry, list(workload.args)


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def expected_paper() -> Dict[str, dict]:
    """What ``expected_paper.json`` holds, computed afresh: each proxy's
    output and return value from the interpreter on the unpromoted
    module, and its Table 1/2 counts from the pipeline."""
    doc = {}
    for name in ORDER:
        entry, args = entry_of(name)
        run = Interpreter(compile_source(WORKLOADS[name].source)).run(entry, args)
        _, result = promote(WORKLOADS[name].source, entry, args)
        doc[name] = {
            "output": [list(values) for values in run.output],
            "return_value": run.return_value,
            **counts_of(result),
        }
    return doc


# -- ops, references and quality -------------------------------------------------


class Op:
    """One timed op and what its checks need."""

    __slots__ = (
        "key",
        "source",
        "began",
        "ended",
        "wall_s",
        "latency_s",
        "ir_digest",
        "counts",
        "output_matches",
        "error",
        "status",
        "body",
        "engine_s",
        "cached",
    )

    def __init__(self, key: str, source: str) -> None:
        self.key = key
        self.source = source
        #: ``perf_counter`` stamps around the op.
        self.began = 0.0
        self.ended = 0.0
        #: Its wall time, and the same span in reference seconds.
        self.wall_s = 0.0
        self.latency_s = 0.0
        #: sha256 of the promoted IR text (in-process ops).
        self.ir_digest: Optional[str] = None
        self.counts: Optional[Dict[str, int]] = None
        self.output_matches = False
        self.error: Optional[str] = None
        self.status: Optional[int] = None
        self.body = b""
        self.engine_s: Optional[float] = None
        self.cached = False


def promote(source: str, entry: str, args: List[int], compile_fn=compile_source):
    module = compile_fn(source)
    return module, PromotionPipeline(entry=entry, args=args).run(module)


def counts_of(result) -> Dict[str, int]:
    return {
        "static_loads_before": result.static_before.loads,
        "static_loads_after": result.static_after.loads,
        "static_stores_before": result.static_before.stores,
        "static_stores_after": result.static_after.stores,
        "dynamic_loads_before": result.dynamic_before.loads,
        "dynamic_loads_after": result.dynamic_after.loads,
        "dynamic_stores_before": result.dynamic_before.stores,
        "dynamic_stores_after": result.dynamic_after.stores,
    }


def behaviour(module, key: str):
    """(printed lines, return value & 0xFF) of one run — the shape the
    service answers with — or the error the run raised."""
    entry, args = entry_of(key)
    try:
        run = Interpreter(module).run(entry, args)
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        return f"{type(exc).__name__}: {exc}"
    lines = [" ".join(str(value) for value in values) for values in run.output]
    return lines, run.return_value & 0xFF


def expected_behaviour(exp: dict):
    lines = [" ".join(str(value) for value in values) for values in exp["output"]]
    return lines, exp["return_value"] & 0xFF


def _dynamic(counts: Dict[str, int]) -> Tuple[int, int]:
    before = counts["dynamic_loads_before"] + counts["dynamic_stores_before"]
    after = counts["dynamic_loads_after"] + counts["dynamic_stores_after"]
    return before, after


def table2_total(corpus: List[Dict[str, int]]) -> float:
    """Table 2's overall row: the share of all executed singleton loads
    and stores that promotion removed."""
    before = sum(_dynamic(counts)[0] for counts in corpus)
    after = sum(_dynamic(counts)[1] for counts in corpus)
    return 100.0 * (before - after) / before if before else 0.0


def mean_removed_pct(corpus: List[Dict[str, int]]) -> float:
    """The share of its executed singleton loads and stores promotion
    removed from each program, averaged with every program weighted
    alike.  A handful of loop-heavy programs dominate a pooled total,
    which would make the number swing from seed to seed."""
    shares = [
        100.0 * (before - after) / before
        for before, after in map(_dynamic, corpus)
        if before
    ]
    return statistics.mean(shares) if shares else 0.0


class Measurement:
    """Everything one run measured, before it becomes metrics."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        #: ``perf_counter`` spans of the set-ups and (served) of the window.
        self.setup_spans: List[Tuple[float, float]] = []
        self.window_span: Optional[Tuple[float, float]] = None
        #: The same in reference seconds, then in wall seconds.
        self.setup_s: List[float] = []
        self.window_s = 0.0
        self.wall_setup_s: List[float] = []
        self.wall_window_s = 0.0
        #: The host's median slowdown while the window ran.
        self.slowdown = 0.0
        self.ops: List[Op] = []
        self.failed = 0
        self.failures: List[str] = []
        self.peak_rss_mb = 0.0
        self.quality = 0.0
        self.layers: Optional[Dict[str, object]] = None
        #: Workload-specific metrics (service and router), name -> (value, unit).
        self.extra: Dict[str, Tuple[float, str]] = {}

    def fail(self, op: Op, problem: str) -> None:
        self.failed += 1
        self.failures.append(f"{op.key}: {problem}")


class PeakMemory:
    """Reads peak memory once :data:`MEMORY_OPS` ops are done, or at the
    window's end when fewer ran."""

    def __init__(self, read: Callable[[], float]) -> None:
        self.read = read
        self.value: Optional[float] = None

    def after_op(self, done: int) -> None:
        if done == MEMORY_OPS:
            self.value = self.read()

    def final(self) -> float:
        return self.value if self.value is not None else self.read()


# -- in-process workloads --------------------------------------------------------


def _batches(name: str, seed: int) -> Iterator[List[Item]]:
    return paper_rounds(seed) if name == "paper-suite" else generated(seed)


def _warm_up(name: str) -> None:
    """One untimed op, so lazy imports and first-call costs stay out of
    the window."""
    if name == "paper-suite":
        promote(WORKLOADS["compress"].source, *entry_of("compress"))
    else:
        promote(random_program(WARMUP_SEED), "main", [])


def setup_probe(name: str, seed: int) -> None:
    """The in-process set-up — input generation and warm-up — as a fresh
    interpreter runs it after importing the pipeline."""
    next(_batches(name, seed))
    _warm_up(name)


def _probe_setup(name: str, seed: int) -> Tuple[float, float]:
    """From spawning a fresh interpreter to its being ready for the
    first op."""
    argv = [sys.executable, RUN_PY, "--setup-probe", "--workload", name, "--seed", str(seed)]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
    return started, ready


def _timed_inprocess(
    batches: Iterator[List[Item]],
    seconds: float,
    ops: Optional[int],
    do_op,
    observed: Dict[Tuple[str, str], object],
    memory: PeakMemory,
    untraced=contextlib.nullcontext,
) -> List[Op]:
    """Ops until their summed wall time reaches ``seconds`` (at a batch
    end) or ``ops`` ops ran.  Between ops,
    off the clock, each distinct promoted IR is run once into
    ``observed``: a promoted module is too large to keep until the
    window ends."""
    records: List[Op] = []
    busy = 0.0
    for batch in batches:
        for key, source in batch:
            op = Op(key, source)
            op.began = time.perf_counter()
            try:
                module, result = do_op(source, *entry_of(key))
            except Exception as exc:  # noqa: BLE001 - recorded as a failed op
                op.ended = time.perf_counter()
                op.error = f"{type(exc).__name__}: {exc}"
            else:
                op.ended = time.perf_counter()
                op.counts = counts_of(result)
                op.output_matches = result.output_matches
                ir = print_module(module).encode()
                op.ir_digest = hashlib.sha256(ir).hexdigest()
                if (key, op.ir_digest) not in observed:
                    with untraced():
                        observed[(key, op.ir_digest)] = behaviour(module, key)
            busy += op.ended - op.began
            records.append(op)
            memory.after_op(len(records))
            if ops is not None and len(records) >= ops:
                return records
        if ops is None and busy >= seconds:
            break
    return records


def _check_inprocess(
    m: Measurement, expected: Dict[str, dict], observed: Dict[Tuple[str, str], object]
) -> None:
    """Proxies against ``expected``; generated programs against the
    interpreter on their unpromoted module.  ``observed`` holds the
    behaviour of each distinct promoted IR."""
    for op in m.ops:
        if op.error is not None:
            m.fail(op, op.error)
            continue
        if not op.output_matches:
            m.fail(op, "the pipeline reported a behaviour change")
            continue
        exp = expected.get(op.key)
        if exp is not None:
            wrong = [key for key in COUNT_KEYS if op.counts[key] != exp[key]]
            if wrong:
                m.fail(op, "counts differ from expected_paper.json: " + ", ".join(wrong))
                continue
            want = expected_behaviour(exp)
        else:
            want = behaviour(compile_source(op.source), op.key)
        got = observed[(op.key, op.ir_digest)]
        if got != want:
            m.fail(op, f"promoted program printed/returned {got!r}, expected {want!r}")


def _run_inprocess(
    m: Measurement, seconds: float, trace: bool, ops: Optional[int], expected
) -> None:
    if not trace:
        m.setup_spans = [_probe_setup(m.workload, m.seed) for _ in range(SETUP_REPS)]
    batches = _batches(m.workload, m.seed)
    _warm_up(m.workload)
    memory = PeakMemory(lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    do_op = promote
    observed: Dict[Tuple[str, str], object] = {}
    untraced = contextlib.nullcontext
    tracer = None
    if trace:
        tracer = layers.LayerTracer()
        compile_fn = tracer.wrap("compile_source", compile_source, count=layers.count_source)

        def promote_traced(source, entry, args):
            return promote(source, entry, args, compile_fn)

        do_op = tracer.wrap("op", promote_traced, layer="harness", root=True)
        untraced = tracer.suspend
        tracer.install()
    try:
        m.ops = _timed_inprocess(
            batches, seconds, ops, do_op, observed, memory, untraced
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    m.peak_rss_mb = memory.final()
    if tracer is not None:
        m.layers = tracer.summary()
        tracer.write_trace(os.path.join(OUT_DIR, f"trace-{m.workload}-seed{m.seed}.json"))
    _check_inprocess(m, expected, observed)
    if m.workload == "paper-suite":
        first = {op.key: op.counts for op in reversed(m.ops) if op.counts is not None}
        m.quality = table2_total(list(first.values()))
    elif not trace:
        # A fixed corpus per seed, however many programs the window
        # reached: the first QUALITY_PROGRAMS of the stream.
        corpus = [op.counts for op in m.ops[:QUALITY_PROGRAMS] if op.counts is not None]
        for _ in range(QUALITY_PROGRAMS - len(m.ops)):
            (key, source), = next(batches)
            corpus.append(counts_of(promote(source, *entry_of(key))[1]))
        m.quality = mean_removed_pct(corpus)


# -- service workloads -----------------------------------------------------------


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Tier:
    """The service processes a serve workload runs against: one daemon,
    or a router over :data:`ROUTED_BACKENDS` daemons.  Traced daemons
    run ``traced_serve.py`` and write their layer summary on exit."""

    def __init__(self, routed: bool, trace_prefix: Optional[str] = None) -> None:
        self.routed = routed
        self.trace_prefix = trace_prefix
        self.daemons: List[ServiceProcess] = []
        self.router: Optional[ServiceProcess] = None

    @property
    def processes(self) -> List[ServiceProcess]:
        return self.daemons + ([self.router] if self.router is not None else [])

    @property
    def front(self) -> ServiceProcess:
        return self.router if self.router is not None else self.daemons[0]

    def summary_path(self, index: int) -> str:
        return f"{self.trace_prefix}-daemon{index}.summary.json"

    def boot(self) -> None:
        for index in range(ROUTED_BACKENDS if self.routed else 1):
            argv = [sys.executable, "-m", "repro.service"]
            if self.trace_prefix is not None:
                argv = [
                    sys.executable,
                    TRACED_SERVE,
                    "--summary-out",
                    self.summary_path(index),
                    "--trace-out",
                    f"{self.trace_prefix}-daemon{index}.json",
                ]
            daemon = ServiceProcess(argv, name=f"daemon-{index}")
            self.daemons.append(daemon)
            daemon.boot()
        if self.routed:
            argv = [sys.executable, "-m", "repro.service.router"]
            for daemon in self.daemons:
                argv += ["--backend", daemon.address]
            self.router = ServiceProcess(argv, name="router")
            self.router.boot()

    async def reset_tracers(self, timeout_s: float = 10.0) -> None:
        """Drop the warm-up from the traced daemons' spans."""
        for daemon in self.daemons:
            daemon.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout_s
        while not all("tracer reset" in d.stderr_lines for d in self.daemons):
            if time.monotonic() > deadline:
                raise RuntimeError("a traced daemon did not acknowledge SIGUSR1")
            await asyncio.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return sum(_vm_hwm_mb(proc.pid) for proc in self.processes)

    def stop(self) -> None:
        """SIGTERM (graceful drain) every process and wait for it; kill
        whatever outlives the grace period."""
        for proc in reversed(self.processes):
            if proc.proc is not None and proc.proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.processes:
            if proc.proc is None:
                continue
            try:
                proc.wait(timeout_s=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout_s=30)


async def _ready(client: ServiceClient, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if (await client.get("/readyz")).status == 200:
                return
        except OSError:
            pass
        await asyncio.sleep(0.02)
    raise RuntimeError("service never became ready")


async def _drive(
    client: ServiceClient,
    requests: Iterator[Item],
    seconds: float,
    ops: Optional[int],
    memory: Optional[PeakMemory] = None,
) -> Tuple[List[Op], Tuple[float, float]]:
    """:data:`CONNECTIONS` closed-loop clients over one request sequence."""
    records: List[Op] = []
    issued = 0
    start = time.perf_counter()
    deadline = start + seconds

    def more() -> bool:
        if ops is not None:
            return issued < ops
        return time.perf_counter() < deadline

    async def connection() -> None:
        nonlocal issued
        while more():
            issued += 1
            op = Op(*next(requests))
            op.began = time.perf_counter()
            try:
                response = await client.submit({"kind": "minic", "source": op.source})
            except Exception as exc:  # noqa: BLE001 - recorded as a failed op
                op.error = f"{type(exc).__name__}: {exc}"
            else:
                op.status = response.status
                op.body = response.body
            op.ended = time.perf_counter()
            records.append(op)
            if memory is not None:
                memory.after_op(len(records))

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return records, (start, time.perf_counter())


async def _boot_ready_warm(tier: Tier) -> None:
    tier.boot()
    client = ServiceClient(tier.front.host, tier.front.port, timeout_s=120)
    await _ready(client)
    hot = iter([(name, WORKLOADS[name].source) for name in ORDER])
    warm, _ = await _drive(client, hot, 0, len(ORDER))
    bad = [op.key for op in warm if op.status != 200]
    if bad:
        raise RuntimeError(f"warm-up failed for {', '.join(bad)}")


async def _scrape(tier: Tier) -> List[dict]:
    docs = []
    for proc in tier.processes:
        response = await ServiceClient(proc.host, proc.port).get("/metrics")
        docs.append(response.json())
    return docs


def _service_counters(docs: List[dict]) -> Dict[str, float]:
    """Daemon counters summed over the tier, plus the router's."""
    out: Dict[str, float] = {}
    for doc in docs:
        if "engine" in doc:
            for key, value in (
                ("jobs", doc["engine"]["jobs_total"]),
                ("cache_hits", doc["engine"]["result_cache_hits"]),
                ("failed", doc["engine"]["failed_total"]),
                ("shed", doc["admission"]["shed_total"]),
                ("trips", doc["breaker"]["trips"]),
            ):
                out[key] = out.get(key, 0) + value
        else:
            router = doc["router"]
            for key in (
                "router.failovers",
                "router.sticky.routed",
                "router.sticky.hits",
                "router.fingerprint.compiled",
            ):
                out[key] = router.get(key, {}).get("value") or 0
    return out


def _service_metrics(m: Measurement, before: Dict[str, float], after: Dict[str, float]) -> None:
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    served = [op for op in m.ops if op.engine_s is not None]
    engine = [op.engine_s * 1e3 for op in served if not op.cached]
    wait = [(op.latency_s - op.engine_s) * 1e3 for op in served]
    m.extra["service.engine_ms_p50"] = (percentile(engine, 50), "ms")
    m.extra["service.engine_ms_p90"] = (percentile(engine, 90), "ms")
    m.extra["service.engine_samples"] = (len(engine), "count")
    m.extra["service.wait_ms_p50"] = (percentile(wait, 50), "ms")
    m.extra["service.wait_ms_p90"] = (percentile(wait, 90), "ms")
    jobs = delta["jobs"]
    m.extra["service.result_cache_hit_ratio"] = (delta["cache_hits"] / jobs if jobs else 0.0, "ratio")
    m.extra["service.jobs"] = (jobs, "count")
    m.extra["service.shed_total"] = (delta["shed"], "count")
    m.extra["service.failed_total"] = (delta["failed"], "count")
    m.extra["service.breaker_trips"] = (delta["trips"], "count")
    if "router.sticky.routed" in delta:
        routed = delta["router.sticky.routed"]
        hits = delta["router.sticky.hits"]
        m.extra["router.sticky_hit_ratio"] = (hits / routed if routed else 0.0, "ratio")
        m.extra["router.sticky_routed"] = (routed, "count")
        m.extra["router.failovers"] = (delta["router.failovers"], "count")
        m.extra["router.fingerprint_compiled"] = (delta["router.fingerprint.compiled"], "count")


def _check_served(m: Measurement, expected: Dict[str, dict]) -> None:
    """Each 200 answer against a fresh in-process run of the same source:
    IR byte for byte, output and return value against the references."""
    references: Dict[str, tuple] = {}

    def reference(key: str, source: str) -> tuple:
        if source not in references:
            entry, args = entry_of(key)
            module, result = promote(source, entry, args)
            exp = expected.get(key)
            if exp is not None:
                want = expected_behaviour(exp)
            else:
                want = behaviour(compile_source(source), key)
            references[source] = (print_module(module), want, counts_of(result))
        return references[source]

    for op in m.ops:
        if op.error is not None:
            m.fail(op, op.error)
            continue
        if op.status != 200:
            m.fail(op, f"HTTP {op.status}: {op.body[:200]!r}")
            continue
        doc = json.loads(op.body)
        op.engine_s = doc["duration_ms"] / 1e3
        op.cached = bool(doc["cached"])
        ir, want, op.counts = reference(op.key, op.source)
        if doc["ir"] != ir:
            m.fail(op, "served IR differs from the in-process IR")
        elif (doc["output"], doc["return_value"]) != want:
            m.fail(op, f"served output {doc['output']!r}, expected {want!r}")
        elif not doc["output_matches"] or doc["degraded"]:
            m.fail(op, "served result is degraded or changed behaviour")
    # Quality of what the hot set is served: every proxy request above
    # was checked byte for byte against these same in-process runs.
    m.quality = table2_total(
        [reference(name, WORKLOADS[name].source)[2] for name in ORDER]
    )


async def _serve(
    m: Measurement, seconds: float, trace: bool, ops: Optional[int]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Set up, run the window, and return the tier's counters from
    before and after it."""
    routed = m.workload == "serve-routed"
    if not trace:
        for _ in range(SETUP_REPS - 1):
            tier = Tier(routed)
            started = time.perf_counter()
            try:
                await _boot_ready_warm(tier)
                m.setup_spans.append((started, time.perf_counter()))
            finally:
                tier.stop()
    prefix = os.path.join(OUT_DIR, f"trace-{m.workload}-seed{m.seed}") if trace else None
    tier = Tier(routed, prefix)
    started = time.perf_counter()
    try:
        await _boot_ready_warm(tier)
        m.setup_spans.append((started, time.perf_counter()))
        if trace:
            await tier.reset_tracers()
        client = ServiceClient(tier.front.host, tier.front.port, timeout_s=120)
        before = _service_counters(await _scrape(tier))
        memory = PeakMemory(tier.peak_rss_mb)
        m.ops, m.window_span = await _drive(
            client, serve_requests(m.seed), seconds, ops, memory
        )
        after = _service_counters(await _scrape(tier))
        m.peak_rss_mb = memory.final()
    finally:
        tier.stop()
    if trace:
        summaries = []
        for index in range(len(tier.daemons)):
            with open(tier.summary_path(index)) as handle:
                summaries.append(json.load(handle))
        m.layers = layers.merge(summaries)
    return before, after


# -- entry points ----------------------------------------------------------------


def percentile(values: List[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    ops: Optional[int] = None,
    expected: Optional[Dict[str, dict]] = None,
) -> Measurement:
    """One run of one workload.  ``ops`` fixes the op count instead of
    the window length (the smoke test uses it); ``expected`` replaces
    ``expected_paper.json``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    m = Measurement(name, seed)
    expected = load_expected() if expected is None else expected
    clock = hostclock.HostClock()
    try:
        if name.startswith("serve-"):
            counters = asyncio.run(_serve(m, seconds, trace, ops))
            _check_served(m, expected)
            _compensate(m, clock)
            _service_metrics(m, *counters)
        else:
            _run_inprocess(m, seconds, trace, ops, expected)
            _compensate(m, clock)
    finally:
        clock.stop()
    if trace:
        layers.check(m.layers)
    return m


def _compensate(m: Measurement, clock: hostclock.HostClock) -> None:
    """Every timing in reference seconds (see :mod:`hostclock`), the wall
    times kept beside them."""
    m.wall_setup_s = [end - start for start, end in m.setup_spans]
    m.setup_s = [clock.seconds(start, end) for start, end in m.setup_spans]
    for op in m.ops:
        op.wall_s = op.ended - op.began
        op.latency_s = clock.seconds(op.began, op.ended)
        if op.engine_s is not None:
            op.engine_s = clock.seconds(op.ended - op.engine_s, op.ended)
    if m.window_span is None:
        # In process the window is the ops' summed time: the harness's
        # checks between ops are off the clock.
        m.wall_window_s = sum(op.wall_s for op in m.ops)
        m.window_s = sum(op.latency_s for op in m.ops)
        span = (m.ops[0].began, m.ops[-1].ended)
    else:
        m.wall_window_s = m.window_span[1] - m.window_span[0]
        m.window_s = clock.seconds(*m.window_span)
        span = m.window_span
    m.slowdown = clock.slowdown(*span)


def latencies_ms(m: Measurement, wall: bool = False) -> List[float]:
    """Per-op latencies, except on ``paper-suite``: there the same eight
    programs repeat, so each proxy contributes its median latency — a
    percentile over raw ops would sit on the gap between two proxies."""
    by_key: Dict[str, List[float]] = {}
    for index, op in enumerate(m.ops):
        key = op.key if m.workload == "paper-suite" else index
        by_key.setdefault(key, []).append((op.wall_s if wall else op.latency_s) * 1e3)
    return [statistics.median(values) for values in by_key.values()]


def end_to_end(m: Measurement) -> Dict[str, Tuple[float, str]]:
    """The metrics ``BENCHMARK.json`` names as end to end."""
    latencies = latencies_ms(m)
    return {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "ops_per_s": (len(m.ops) / m.window_s, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_p90_ms": (percentile(latencies, 90), "ms"),
        "peak_rss_mb": (m.peak_rss_mb, "MiB"),
        "dyn_mem_ops_removed_pct": (m.quality, "%"),
    }


def reported(m: Measurement) -> Dict[str, Tuple[float, str]]:
    """Metrics printed beside the ``BENCHMARK.json`` ones: sample counts,
    the failure share, p99 where it has ten samples beyond it, and the
    service/router counters."""
    wall = latencies_ms(m, wall=True)
    out: Dict[str, Tuple[float, str]] = {
        "samples": (len(m.ops), "count"),
        "fail_share": (m.failed / len(m.ops) if m.ops else 0.0, "ratio"),
        "window_s": (m.window_s, "s"),
        "host.slowdown": (m.slowdown, "ratio"),
        "wall.window_s": (m.wall_window_s, "s"),
        "wall.ops_per_s": (len(m.ops) / m.wall_window_s, "1/s"),
        "wall.latency_p50_ms": (percentile(wall, 50), "ms"),
        "wall.latency_p90_ms": (percentile(wall, 90), "ms"),
    }
    if m.wall_setup_s:
        out["wall.setup_s"] = (statistics.median(m.wall_setup_s), "s")
    if len(m.ops) >= 1000:
        latencies = [op.latency_s * 1e3 for op in m.ops]
        out["latency_p99_ms"] = (percentile(latencies, 99), "ms")
    out.update(m.extra)
    return out
