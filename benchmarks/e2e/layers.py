"""Per-layer spans for the traced benchmark run.

A traced run answers where an op's time went without changing the code
under test.  For the length of the timed window it wraps the stage
functions :mod:`repro.promotion.pipeline` binds at import, plus
``Interpreter.run`` and ``PromotionPipeline.run`` itself, and records
one span per call: name, start, end, parent span and op id.  A span's
layer is the package of the wrapped function (``repro.ssa.construct``
is layer ``ssa``), so the split follows the source tree.  A layer's
self time is its spans' duration minus the part their child spans
cover; the ``pipeline`` layer's self time is the part of
``PromotionPipeline.run`` that no wrapper accounts for.

Spans stay in memory and are written as one Chrome trace when the run
ends.  The same tracer runs inside ``repro-serve`` for the service
workloads (see ``traced_serve.py``), where two engine threads record at
once, so every thread keeps its own lane and lanes merge at the end.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.profile.interp import Interpreter
from repro.promotion import pipeline as pipeline_module
from repro.promotion.pipeline import PromotionPipeline

#: Every stage function ``repro.promotion.pipeline`` imports and calls on
#: a default (serial, transactional) run, with the layer it belongs to.
#: A rename or move in ``pipeline.py`` makes :meth:`LayerTracer.install`
#: fail with the layer named instead of silently dropping that layer.
PIPELINE_CALLS: Dict[str, str] = {
    "snapshot_function": "robustness",
    "capture_state": "robustness",
    "construct_ssa": "ssa",
    "normalize_for_promotion": "analysis",
    "verify_function": "ir",
    "build_memory_ssa": "memory",
    "promote_function": "promotion",
    "remove_dummy_loads": "passes",
    "propagate_copies": "passes",
    "dead_code_elimination": "passes",
    "dead_memory_elimination": "passes",
}

#: The layers a run reports, in report order.
LAYERS = (
    "profile",
    "robustness",
    "frontend",
    "promotion",
    "memory",
    "ssa",
    "analysis",
    "passes",
    "ir",
)

#: The least share of ``PromotionPipeline.run`` the wrappers must cover.
MIN_COVERAGE = 0.90

#: The additive totals of a summary.
_TOTALS = ("self_s", "wall_s", "calls", "counts")


class TraceGuardError(RuntimeError):
    """The traced run lost a layer: a wrapper is missing or never fired,
    or the wrappers no longer cover the pipeline."""


def layer_of(fn: Callable) -> str:
    """``repro.<layer>.<module>`` -> ``<layer>``."""
    return fn.__module__.split(".")[1]


# -- counters read off wrapped calls' results -------------------------------


def _count_steps(counts: Counter, result, args) -> None:
    counts["profile.steps"] += result.steps


def count_source(counts: Counter, result, args) -> None:
    """Counter for a wrapped ``compile_source``: source bytes read."""
    counts["frontend.bytes"] += len(args[0])


def _count_tracked(counts: Counter, result, args) -> None:
    counts["memory.tracked_vars"] += len(result.tracked)


def _count_webs(counts: Counter, result, args) -> None:
    counts["promotion.webs_seen"] += result.webs_seen
    counts["promotion.webs_promoted"] += result.webs_promoted


def _count_cache(counts: Counter, result, args) -> None:
    if result.cache_stats is not None:
        counts["parallel.cache_hits"] += result.cache_stats.total_hits
        counts["parallel.cache_misses"] += result.cache_stats.total_misses


_COUNTERS = {
    "build_memory_ssa": _count_tracked,
    "promote_function": _count_webs,
}


class _Lane:
    """One thread's spans and totals."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: Open spans: [span id, seconds covered by finished children].
        self.stack: List[list] = []
        #: (span id, name, layer, start, end, parent id, op id)
        self.spans: List[tuple] = []
        self.self_s: Counter = Counter()
        self.wall_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Root spans (ops) finished, and their summed duration.
        self.ops = 0
        self.root_s = 0.0
        self.op: Optional[int] = None


class LayerTracer:
    """Span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lanes: List[_Lane] = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()
        #: True while :meth:`suspend` is active: wrappers record nothing.
        self.suspended = False

    @contextlib.contextmanager
    def suspend(self):
        """Let calls through unrecorded — for the harness's own checks
        between timed ops."""
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False

    def reset(self) -> None:
        """Forget everything recorded so far; call while no span is open."""
        with self._lock:
            for lane in self._lanes:
                lane.__init__(lane.tid)

    def _lane(self) -> _Lane:
        lane = getattr(self._local, "lane", None)
        if lane is None:
            lane = _Lane(threading.get_ident())
            self._local.lane = lane
            with self._lock:
                self._lanes.append(lane)
        return lane

    def wrap(
        self,
        name: str,
        fn: Callable,
        layer: Optional[str] = None,
        count: Optional[Callable] = None,
        root: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call.  A ``root`` span starts a
        new op: every span under it carries that op's id."""
        layer = layer or layer_of(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            lane = tracer._lane()
            if root:
                lane.op = next(tracer._op_ids)
            span_id = next(tracer._span_ids)
            parent = lane.stack[-1][0] if lane.stack else None
            frame = [span_id, 0.0]
            lane.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                lane.stack.pop()
                duration = end - start
                if lane.stack:
                    lane.stack[-1][1] += duration
                lane.self_s[layer] += duration - frame[1]
                lane.wall_s[name] += duration
                lane.calls[name] += 1
                lane.spans.append((span_id, name, layer, start, end, parent, lane.op))
                if root:
                    lane.ops += 1
                    lane.root_s += duration
            if count is not None:
                count(lane.counts, result, args)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attribute: str, **wrap_args) -> None:
        """Replace ``owner.attribute`` with its traced form until
        :meth:`uninstall`."""
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
            name = f"{owner.__name__}.{attribute}"
        else:
            original = getattr(owner, attribute)
            name = attribute
        setattr(owner, attribute, self.wrap(name, original, **wrap_args))
        self._patches.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap the pipeline's stage calls, ``Interpreter.run`` and
        ``PromotionPipeline.run``."""
        for name, layer in PIPELINE_CALLS.items():
            fn = getattr(pipeline_module, name, None)
            if fn is None or layer_of(fn) != layer:
                self.uninstall()
                found = "nothing" if fn is None else f"a {layer_of(fn)} function"
                raise TraceGuardError(
                    f"layer {layer}: repro.promotion.pipeline.{name} is {found}; "
                    f"update PIPELINE_CALLS in {__name__}"
                )
            self.patch(pipeline_module, name, count=_COUNTERS.get(name))
        self.patch(Interpreter, "run", count=_count_steps)
        self.patch(PromotionPipeline, "run", layer="pipeline", count=_count_cache)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results -------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Merged totals of every lane, as plain JSON data; summaries of
        several processes add with :func:`merge`."""
        with self._lock:
            lanes = list(self._lanes)
        out = merge(
            [
                {**{key: getattr(lane, key) for key in _TOTALS},
                 "ops": lane.ops, "root_s": lane.root_s, "span_cost_s": 0.0}
                for lane in lanes
            ]
        )
        out["span_cost_s"] = span_cost_s()
        return out

    def chrome_trace(self) -> Dict[str, object]:
        events = []
        pid = os.getpid()
        with self._lock:
            lanes = list(self._lanes)
        for lane in lanes:
            for span_id, name, layer, start, end, parent, op in lane.spans:
                events.append(
                    {
                        "name": name,
                        "cat": layer,
                        "ph": "X",
                        "ts": round((start - self._origin) * 1e6, 3),
                        "dur": round((end - start) * 1e6, 3),
                        "pid": pid,
                        "tid": lane.tid,
                        "args": {"id": span_id, "parent": parent, "op": op},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_trace(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def span_cost_s() -> float:
    """What one wrapped call costs over a plain one, measured here."""
    calls = 20000

    def noop() -> None:
        return None

    traced = LayerTracer().wrap("noop", noop, layer="probe")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - plain) / calls)


def merge(summaries: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Add summaries of several lanes or processes (the routed tier's
    backends); the span cost is the largest measured."""
    totals = {key: Counter() for key in _TOTALS}
    for summary in summaries:
        for key in _TOTALS:
            totals[key].update(summary[key])
    out: Dict[str, object] = {key: dict(value) for key, value in totals.items()}
    out["ops"] = sum(summary["ops"] for summary in summaries)
    out["root_s"] = sum(summary["root_s"] for summary in summaries)
    out["span_cost_s"] = max((summary["span_cost_s"] for summary in summaries), default=0.0)
    return out


def check(summary: Dict[str, object]) -> None:
    """Raise :class:`TraceGuardError` naming each layer whose wrapper
    never fired, or when the wrappers cover less than
    :data:`MIN_COVERAGE` of ``PromotionPipeline.run``."""
    calls = summary["calls"]
    expected = dict(PIPELINE_CALLS)
    expected["Interpreter.run"] = "profile"
    expected["PromotionPipeline.run"] = "pipeline"
    silent = sorted(
        f"{layer} ({name})" for name, layer in expected.items() if not calls.get(name)
    )
    if silent:
        raise TraceGuardError("wrappers never fired: " + ", ".join(silent))
    coverage = _coverage(summary)
    if coverage < MIN_COVERAGE:
        raise TraceGuardError(
            f"layer pipeline: wrappers cover {coverage:.1%} of "
            f"PromotionPipeline.run, below {MIN_COVERAGE:.0%}"
        )


def _coverage(summary: Dict[str, object]) -> float:
    total = summary["wall_s"].get("PromotionPipeline.run", 0.0)
    if not total:
        return 0.0
    return 1.0 - summary["self_s"].get("pipeline", 0.0) / total


def metrics(summary: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced run, ``name -> (value, unit)``.

    The window is a length of time, so a faster layer fits more ops into
    it: time and work are reported per op (one op is one root span: a
    harness op in process, one ``PromotionEngine.execute`` in a daemon),
    and shares are of the summed op time."""
    self_s = summary["self_s"]
    calls = summary["calls"]
    counts = summary["counts"]
    ops = summary["ops"] or 1
    root_s = summary["root_s"] or 1.0
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.ms_per_op"] = (1e3 * self_s.get(layer, 0.0) / ops, "ms")
    profile_s = self_s.get("profile", 0.0)
    steps = counts.get("profile.steps", 0)
    out["profile.share"] = (profile_s / root_s, "ratio")
    out["profile.runs_per_op"] = (calls.get("Interpreter.run", 0) / ops, "count")
    out["profile.steps_per_op"] = (steps / ops, "count")
    out["profile.msteps_per_s"] = (steps / 1e6 / profile_s if profile_s else 0.0, "Msteps/s")
    out["robustness.share"] = (self_s.get("robustness", 0.0) / root_s, "ratio")
    snapshots = calls.get("snapshot_function", 0) + calls.get("capture_state", 0)
    out["robustness.snapshots_per_op"] = (snapshots / ops, "count")
    frontend_s = self_s.get("frontend", 0.0)
    out["frontend.kb_per_s"] = (
        counts.get("frontend.bytes", 0) / 1024 / frontend_s if frontend_s else 0.0,
        "KiB/s",
    )
    for name in ("promotion.webs_seen", "promotion.webs_promoted", "memory.tracked_vars"):
        out[name + "_per_op"] = (counts.get(name, 0) / ops, "count")
    out["pipeline.other_ms_per_op"] = (1e3 * self_s.get("pipeline", 0.0) / ops, "ms")
    hits = counts.get("parallel.cache_hits", 0)
    lookups = hits + counts.get("parallel.cache_misses", 0)
    out["parallel.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["parallel.cache_lookups_per_op"] = (lookups / ops, "count")
    spans = sum(calls.values())
    out["tracing.ops"] = (summary["ops"], "count")
    out["tracing.overhead_pct"] = (100.0 * spans * summary["span_cost_s"] / root_s, "%")
    out["tracing.coverage_pct"] = (100.0 * _coverage(summary), "%")
    return out
