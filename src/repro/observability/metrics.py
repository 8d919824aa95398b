"""The promotion metrics registry: counters, gauges, and histograms.

Instruments the *events* of a pipeline run — webs built and promoted,
loads/stores deleted, compensating loads/stores inserted, phis placed by
the incremental SSA updater vs. the CSS96 comparator, and the
supervised worker's retry/timeout/quarantine counters — as named instruments with units, serializable to one JSON
document (see :mod:`repro.observability.export`).

Deep modules (:mod:`repro.ssa.incremental`, :mod:`repro.ssa.css96`)
report through the **ambient** registry: :func:`activate` installs a
registry on a :class:`contextvars.ContextVar` (the same pattern as
:mod:`repro.observability.decisions`), and :func:`ambient` returns the installed
registry or the no-op :data:`NULL_METRICS` — so instrumented code never
tests whether metrics are on.

Worker processes record into their own registry and ship
:meth:`MetricsRegistry.as_dict` snapshots back with their results; the
parent :meth:`absorbs <MetricsRegistry.absorb>` them in module order, so
aggregate counters are identical to a serial run's.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Optional


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "unit", "value")

    kind = "counter"

    def __init__(self, name: str, unit: str = "count") -> None:
        self.name = name
        self.unit = unit
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "unit": self.unit, "value": self.value}


class Gauge:
    """A last-written value (e.g. a before/after operation count)."""

    __slots__ = ("name", "unit", "value")

    kind = "gauge"

    def __init__(self, name: str, unit: str = "count") -> None:
        self.name = name
        self.unit = unit
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "unit": self.unit, "value": self.value}


class Histogram:
    """A summarized distribution: count, sum, min, max."""

    __slots__ = ("name", "unit", "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, unit: str = "ms") -> None:
        self.name = name
        self.unit = unit
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "unit": self.unit,
            "count": self.count,
            "sum": round(self.sum, 3),
            "min": None if self.min is None else round(self.min, 3),
            "max": None if self.max is None else round(self.max, 3),
        }


class MetricsRegistry:
    """Named instruments, get-or-create by name.

    ``ops`` counts every recording call — the overhead gate multiplies it
    by the measured per-op cost to bound instrumentation overhead.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self.ops = 0

    @property
    def enabled(self) -> bool:
        return True

    def _get(self, cls, name: str, unit: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, unit)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, unit: str = "count") -> Counter:
        return self._get(Counter, name, unit)

    def gauge(self, name: str, unit: str = "count") -> Gauge:
        return self._get(Gauge, name, unit)

    def histogram(self, name: str, unit: str = "ms") -> Histogram:
        return self._get(Histogram, name, unit)

    # -- recording conveniences (one call per event at the call sites) ---

    def inc(self, name: str, amount: int = 1, unit: str = "count") -> None:
        self.ops += 1
        self.counter(name, unit).inc(amount)

    def set(self, name: str, value: float, unit: str = "count") -> None:
        self.ops += 1
        self.gauge(name, unit).set(value)

    def observe(self, name: str, value: float, unit: str = "ms") -> None:
        self.ops += 1
        self.histogram(name, unit).observe(value)

    # -- aggregation -----------------------------------------------------

    def absorb(self, snapshot: Optional[Dict[str, Dict[str, object]]]) -> None:
        """Merge another registry's :meth:`as_dict` snapshot into this one:
        counters add, gauges last-write-wins, histograms pool."""
        if not snapshot:
            return
        for name, doc in snapshot.items():
            kind = doc.get("type")
            unit = str(doc.get("unit", "count"))
            if kind == "counter":
                self.counter(name, unit).inc(int(doc.get("value", 0) or 0))
            elif kind == "gauge":
                value = doc.get("value")
                if value is not None:
                    self.gauge(name, unit).set(value)
            elif kind == "histogram":
                histogram = self.histogram(name, unit)
                count = int(doc.get("count", 0) or 0)
                if count:
                    histogram.count += count
                    histogram.sum += float(doc.get("sum", 0.0) or 0.0)
                    for key, pick in (("min", min), ("max", max)):
                        value = doc.get(key)
                        if value is None:
                            continue
                        current = getattr(histogram, key)
                        setattr(
                            histogram,
                            key,
                            value if current is None else pick(current, value),
                        )

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return {
            name: instrument.as_dict()
            for name, instrument in sorted(self._instruments.items())
        }

    def value(self, name: str) -> object:
        """The current value of a counter/gauge (None when unregistered)."""
        instrument = self._instruments.get(name)
        return getattr(instrument, "value", None)

    def __len__(self) -> int:
        return len(self._instruments)


class _NullInstrument:
    """Counter/gauge/histogram stand-in that discards everything."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


class NullMetrics:
    """The disabled registry — same surface, no state, no branches at
    call sites."""

    __slots__ = ()
    ops = 0

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, unit: str = "count") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, unit: str = "count") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, unit: str = "ms") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def inc(self, name: str, amount: int = 1, unit: str = "count") -> None:
        return None

    def set(self, name: str, value: float, unit: str = "count") -> None:
        return None

    def observe(self, name: str, value: float, unit: str = "ms") -> None:
        return None

    def absorb(self, snapshot) -> None:
        return None

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return {}

    def value(self, name: str) -> None:
        return None

    def __len__(self) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()
NULL_METRICS = NullMetrics()


# -- ambient registry ------------------------------------------------------

_ACTIVE: contextvars.ContextVar[Optional[MetricsRegistry]] = contextvars.ContextVar(
    "repro-metrics-registry", default=None
)


def ambient() -> "MetricsRegistry | NullMetrics":
    """The registry installed by the innermost :func:`activate`, or the
    no-op registry — instrumented code records unconditionally."""
    # Explicit None test: an empty registry is falsy (len() == 0) but
    # still the active sink.
    registry = _ACTIVE.get()
    return NULL_METRICS if registry is None else registry


@contextlib.contextmanager
def activate(registry: Optional[MetricsRegistry]):
    """Install ``registry`` as the ambient metrics sink (None deactivates)."""
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)
