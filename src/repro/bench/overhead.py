"""The instrumentation overhead gate.

The observability layer promises that a run with tracing *disabled* pays
nothing measurable: every instrumentation point hits a null object (see
:mod:`repro.observability.tracer`), so the only residual cost is the
no-op calls themselves.  Once the layer is merged there is no
un-instrumented build left to diff against, so the gate bounds the
disabled-path cost from first principles:

1. microbenchmark one disabled instrumentation event — a
   ``NULL_TRACER.span(...)`` enter/exit plus a ``NULL_METRICS.inc(...)``
   (:func:`measure_null_op_cost`);
2. count how many instrumentation events a real pipeline run performs —
   recorded spans plus metric-recording ops from an *enabled* run
   (:func:`measure_workload_overhead`);
3. estimate the disabled-path overhead as ``events x cost_per_event``
   against the disabled run's wall time.  The tier-1 test
   ``tests/observability/test_overhead.py`` gates every workload of the
   suite at :data:`OVERHEAD_GATE_PCT` percent.

The same probe also reports the enabled-vs-disabled wall-time ratio —
informational only, since recording is opt-in and buys its cost back in
debuggability.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.frontend.lower import compile_source
from repro.observability import NULL_METRICS, NULL_TRACER, Observability
from repro.promotion.pipeline import PromotionPipeline

#: Estimated disabled-path instrumentation overhead must stay under this
#: percentage of the disabled run's wall time (the PR's acceptance bound).
OVERHEAD_GATE_PCT = 3.0


def measure_null_op_cost(iterations: int = 200_000) -> float:
    """Seconds per disabled instrumentation event.

    One "event" is the worst-case disabled call pair: opening and
    closing a null span plus one null metric increment.
    """
    span = NULL_TRACER.span
    inc = NULL_METRICS.inc
    started = time.perf_counter()
    for _ in range(iterations):
        with span("probe", category="probe"):
            inc("probe")
    elapsed = time.perf_counter() - started
    return elapsed / iterations


def measure_workload_overhead(workload, null_op_cost_s: float) -> Dict[str, float]:
    """Probe one workload: disabled wall time, enabled wall time, event
    count, and the estimated disabled-path overhead percentage."""

    def build_pipeline(observability):
        return PromotionPipeline(
            entry=workload.entry,
            args=list(workload.args),
            observability=observability,
        )

    module = compile_source(workload.source)
    started = time.perf_counter()
    build_pipeline(None).run(module)
    disabled_s = time.perf_counter() - started

    obs = Observability.recording()
    module = compile_source(workload.source)
    started = time.perf_counter()
    build_pipeline(obs).run(module)
    enabled_s = time.perf_counter() - started

    # Every recorded span cost one disabled span() pair in the disabled
    # run; every metric-recording op cost one disabled inc()/set().
    events = len(obs.tracer.records) + obs.metrics.ops
    estimated_pct = (
        100.0 * events * null_op_cost_s / disabled_s if disabled_s else 0.0
    )
    return {
        "workload": workload.name,
        "disabled_seconds": round(disabled_s, 4),
        "enabled_seconds": round(enabled_s, 4),
        "enabled_vs_disabled_ratio": round(enabled_s / disabled_s, 3)
        if disabled_s
        else 0.0,
        "instrumentation_events": events,
        "estimated_overhead_pct": round(estimated_pct, 4),
    }
