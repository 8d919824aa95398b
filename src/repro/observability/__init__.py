"""Pipeline tracing and metrics (the observability layer).

One :class:`Observability` bundle — a hierarchical span tracer plus a
metrics registry — threads through a pipeline run:

* enabled (``Observability.recording()``): spans and counters record
  in-memory and export to Chrome-trace / JSONL / metrics-JSON artifacts
  (:mod:`repro.observability.export`);
* disabled (:data:`NULL_OBSERVABILITY`, the default): every
  instrumentation point hits a true null object — no conditionals at
  call sites, no allocation, overhead bounded by the bench overhead gate
  (:mod:`repro.bench.overhead`).

Deep modules report through the ambient registry
(:func:`repro.observability.metrics.ambient`); a supervised worker
process records locally and ships picklable snapshots that the parent
merges in module order, so enabled-mode aggregates are identical
between in-process and supervised runs.
"""

from repro.observability.counting import OpCounts
from repro.observability.decisions import (
    DECISIONS_SCHEMA_VERSION,
    NULL_DECISIONS,
    NULL_FUNCTION_DECISIONS,
    DecisionJournal,
    FunctionDecisions,
    NullDecisionJournal,
    NullFunctionDecisions,
)
from repro.observability.decisions import activate as activate_decisions
from repro.observability.export import (
    SCHEMA_VERSION,
    atomic_write_text,
    build_metadata,
    chrome_trace_document,
    metrics_document,
    text_summary,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
    write_trace,
)
from repro.observability.flightrecorder import (
    NULL_FLIGHT_RECORDER,
    FlightRecorder,
    NullFlightRecorder,
)
from repro.observability.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    ambient,
)
from repro.observability.metrics import activate as activate_metrics
from repro.observability.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.observability.prometheus import (
    exposition,
    registry_samples,
    wants_text,
)
from repro.observability.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
)


class Observability:
    """A tracer and a metrics registry that travel together."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer, metrics) -> None:
        self.tracer = tracer
        self.metrics = metrics

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def recording(cls, trace_id=None) -> "Observability":
        """A fresh enabled bundle (one per run or per worker task); a
        ``trace_id`` ties its root spans to a distributed request."""
        return cls(Tracer(trace_id=trace_id), MetricsRegistry())


#: The disabled bundle: shared, stateless, safe to pass everywhere.
NULL_OBSERVABILITY = Observability(NULL_TRACER, NULL_METRICS)

__all__ = [
    "DECISIONS_SCHEMA_VERSION",
    "DecisionJournal",
    "FlightRecorder",
    "FunctionDecisions",
    "NULL_DECISIONS",
    "NULL_FLIGHT_RECORDER",
    "NULL_FUNCTION_DECISIONS",
    "NULL_METRICS",
    "NULL_OBSERVABILITY",
    "NULL_SPAN",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullDecisionJournal",
    "NullFlightRecorder",
    "NullFunctionDecisions",
    "NullMetrics",
    "NullSpan",
    "NullTracer",
    "Observability",
    "OpCounts",
    "PROMETHEUS_CONTENT_TYPE",
    "SCHEMA_VERSION",
    "Span",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "activate_decisions",
    "activate_metrics",
    "ambient",
    "atomic_write_text",
    "build_metadata",
    "chrome_trace_document",
    "exposition",
    "metrics_document",
    "registry_samples",
    "text_summary",
    "wants_text",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
    "write_trace",
]
