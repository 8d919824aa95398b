"""Hierarchical span tracing for the promotion pipeline.

A :class:`Tracer` records a tree of :class:`SpanRecord` objects —
pipeline → phase → function → stage — each with a wall-clock start
(epoch seconds, comparable across processes), a monotonic-clock
duration, the recording process id, and free-form attributes.  Spans
are opened with the :meth:`Tracer.span` context manager; records are
appended at *enter* time, so the record list order is deterministic for
a deterministic pipeline (module order), independent of how long each
span ran.

Worker processes record into their own tracer and ship plain-dict span
records back with their results; :meth:`Tracer.merge` re-numbers them
and re-parents their roots under a parent span, producing one coherent
trace whose worker lanes are distinguished by the records' ``pid``.

The disabled path is a true null object: :data:`NULL_TRACER` returns
:data:`NULL_SPAN` from every ``span()`` call, so instrumentation sites
never test a flag — ``with obs.tracer.span(...)`` costs two no-op
method calls when tracing is off.
"""

from __future__ import annotations

import os
import re
import time
from typing import Dict, List, Optional

_TRACEPARENT = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


class TraceContext:
    """W3C-traceparent-style trace context: one ``trace_id`` for a whole
    distributed request, plus the span id of the immediate caller.

    The service tier carries it in the ``traceparent`` HTTP header
    (``00-<trace_id>-<parent_span_id>-01``); the pipeline stamps the
    ``trace_id`` onto its root spans (via ``Tracer(trace_id=...)``) so a
    merged Chrome trace from router, daemon, engine, and supervised
    worker forms one connected tree under one id.
    """

    __slots__ = ("trace_id", "parent_span_id")

    def __init__(self, trace_id: str, parent_span_id: Optional[str] = None) -> None:
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh context at the edge of the system (no caller span)."""
        return cls(os.urandom(16).hex(), None)

    def child(self) -> "TraceContext":
        """The context to propagate downstream: same trace, a fresh span
        id standing for *this* hop."""
        return TraceContext(self.trace_id, os.urandom(8).hex())

    def to_traceparent(self) -> str:
        parent = self.parent_span_id or os.urandom(8).hex()
        return f"00-{self.trace_id}-{parent}-01"

    @classmethod
    def from_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; None when absent or malformed
        (a bad header must never fail a job — it just starts a new trace)."""
        if not header:
            return None
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None or match.group("trace_id") == "0" * 32:
            return None
        return cls(match.group("trace_id"), match.group("span_id"))

    def as_dict(self) -> Dict[str, object]:
        return {"trace_id": self.trace_id, "parent_span_id": self.parent_span_id}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id!r}, parent={self.parent_span_id!r})"


class SpanRecord:
    """One completed (or still-open) span, plain data and picklable."""

    __slots__ = (
        "id",
        "parent",
        "name",
        "category",
        "start_s",
        "duration_ms",
        "pid",
        "attrs",
    )

    def __init__(
        self,
        id: int,
        parent: Optional[int],
        name: str,
        category: str,
        start_s: float,
        duration_ms: float,
        pid: int,
        attrs: Dict[str, object],
    ) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.category = category
        #: Wall-clock (epoch) start in seconds — comparable across the
        #: parent and worker processes, unlike the monotonic clock.
        self.start_s = start_s
        self.duration_ms = duration_ms
        self.pid = pid
        self.attrs = attrs

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "category": self.category,
            "start_s": self.start_s,
            "duration_ms": round(self.duration_ms, 3),
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "SpanRecord":
        return cls(
            int(doc["id"]),
            None if doc.get("parent") is None else int(doc["parent"]),
            str(doc["name"]),
            str(doc.get("category", "pipeline")),
            float(doc.get("start_s", 0.0)),
            float(doc.get("duration_ms", 0.0)),
            int(doc.get("pid", 0)),
            dict(doc.get("attrs") or {}),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanRecord({self.name!r}, id={self.id}, parent={self.parent})"


class Span:
    """A live span: a context manager that closes its record on exit."""

    __slots__ = ("_tracer", "record", "_start_mono")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record
        self._start_mono = time.perf_counter()

    def set(self, key: str, value: object) -> "Span":
        """Attach (or overwrite) one attribute on the span."""
        self.record.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.record.duration_ms = (time.perf_counter() - self._start_mono) * 1e3
        if exc_type is not None:
            self.record.attrs.setdefault("error_type", exc_type.__name__)
        self._tracer._pop(self.record)


class Tracer:
    """Records spans into an in-memory list; one instance per run/worker."""

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.records: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self._next_id = 1
        #: Distributed trace id; when set, every *root* span is stamped
        #: with a ``trace_id`` attribute so cross-process merges stay
        #: attributable to one request.
        self.trace_id = trace_id

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, category: str = "pipeline", **attrs: object) -> Span:
        """Open a child span of the innermost open span (or a root)."""
        parent = self._stack[-1].id if self._stack else None
        attrs = dict(attrs)
        if parent is None and self.trace_id:
            attrs.setdefault("trace_id", self.trace_id)
        record = SpanRecord(
            self._next_id,
            parent,
            name,
            category,
            time.time(),
            0.0,
            os.getpid(),
            attrs,
        )
        self._next_id += 1
        self.records.append(record)
        self._stack.append(record)
        return Span(self, record)

    def _pop(self, record: SpanRecord) -> None:
        # Tolerate exception-driven unwinding out of order.
        if record in self._stack:
            while self._stack and self._stack[-1] is not record:
                self._stack.pop()
            if self._stack:
                self._stack.pop()

    def add_record(
        self,
        name: str,
        category: str = "pipeline",
        start_s: Optional[float] = None,
        duration_ms: float = 0.0,
        parent: Optional[SpanRecord] = None,
        pid: Optional[int] = None,
        **attrs: object,
    ) -> SpanRecord:
        """Append a pre-measured (synthetic) span, e.g. one reconstructed
        from a supervised-worker attempt record."""
        if parent is None and self._stack:
            parent_id: Optional[int] = self._stack[-1].id
        else:
            parent_id = parent.id if parent is not None else None
        record = SpanRecord(
            self._next_id,
            parent_id,
            name,
            category,
            time.time() if start_s is None else start_s,
            duration_ms,
            os.getpid() if pid is None else pid,
            dict(attrs),
        )
        self._next_id += 1
        self.records.append(record)
        return record

    def merge(
        self,
        exported: Optional[List[Dict[str, object]]],
        parent: Optional[SpanRecord] = None,
    ) -> List[SpanRecord]:
        """Graft spans exported by another tracer (a worker) into this one.

        Ids are re-numbered, internal parent links preserved, and roots
        re-parented under ``parent`` (or the innermost open span).  The
        records keep their original ``pid`` — that is the worker lane.
        """
        if not exported:
            return []
        if parent is None and self._stack:
            parent_id: Optional[int] = self._stack[-1].id
        else:
            parent_id = parent.id if parent is not None else None
        id_map: Dict[int, int] = {}
        merged: List[SpanRecord] = []
        for doc in exported:
            record = SpanRecord.from_dict(doc)
            id_map[record.id] = self._next_id
            record.id = self._next_id
            self._next_id += 1
            merged.append(record)
        for record in merged:
            if record.parent is None:
                record.parent = parent_id
            else:
                record.parent = id_map.get(record.parent, parent_id)
            self.records.append(record)
        return merged

    def export(self) -> List[Dict[str, object]]:
        """Plain-dict span records (picklable, for cross-process shipping)."""
        return [record.as_dict() for record in self.records]

    def roots(self) -> List[SpanRecord]:
        return [record for record in self.records if record.parent is None]

    def children(self, record: SpanRecord) -> List[SpanRecord]:
        return [r for r in self.records if r.parent == record.id]


class NullSpan:
    """The no-op span: every operation returns immediately."""

    __slots__ = ()

    def set(self, key: str, value: object) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullTracer:
    """The disabled tracer: a true null object.

    Instrumentation sites call ``tracer.span(...)`` unconditionally; when
    tracing is off this returns the shared :data:`NULL_SPAN` without
    allocating, so the disabled path stays a handful of attribute lookups.
    """

    __slots__ = ()
    records: List[SpanRecord] = []
    trace_id: Optional[str] = None

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, category: str = "pipeline", **attrs: object) -> NullSpan:
        return NULL_SPAN

    def add_record(
        self, name: str, category: str = "pipeline", **kwargs: object
    ) -> None:
        return None

    def merge(self, exported, parent=None) -> List[SpanRecord]:
        return []

    def export(self) -> List[Dict[str, object]]:
        return []

    def roots(self) -> List[SpanRecord]:
        return []

    def children(self, record) -> List[SpanRecord]:
        return []


NULL_SPAN = NullSpan()
NULL_TRACER = NullTracer()
