"""The crash flight recorder: a bounded ring of recent service events.

Post-mortems of a crashed daemon, a tripped breaker, or a SIGTERM drain
need the *last few seconds* of context — which jobs were admitted, what
the breaker saw, which backend was failing — not a full trace of the
process lifetime.  :class:`FlightRecorder` keeps a fixed-capacity ring
buffer of timestamped events (``record`` is an O(1) append; old events
fall off the far end) and :meth:`dump` writes the whole ring atomically
to the artifacts directory when something goes wrong: an engine crash, a
quarantine, a breaker opening, or a graceful drain.  CI uploads the
dumps on failure.

Recording is unconditional at call sites via the module-level
:func:`install`/:func:`ambient` pair — deliberately a plain global, not
a ``ContextVar``: the recorder belongs to the *process* (daemon or
router), and asyncio task-context copies would strand per-task values.
The default :data:`NULL_FLIGHT_RECORDER` swallows everything, so code
paths shared with library use (the supervisor, the breaker)
cost a no-op method call when no recorder is installed.
"""

from __future__ import annotations

import collections
import json
import time
from typing import Callable, Deque, Dict, List, Optional

_FILENAME_OK = "abcdefghijklmnopqrstuvwxyz0123456789-"


def _slug(text: str) -> str:
    cleaned = "".join(
        ch if ch in _FILENAME_OK else "-" for ch in text.lower().strip()
    )
    return cleaned.strip("-") or "event"


class FlightRecorder:
    """A named ring buffer of recent events, dumpable to JSON."""

    enabled = True

    def __init__(
        self,
        name: str,
        capacity: int = 512,
        artifacts_dir: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.artifacts_dir = artifacts_dir
        self._clock = clock or time.time
        self._ring: Deque[Dict[str, object]] = collections.deque(maxlen=capacity)
        self.recorded_total = 0
        self.dumps = 0

    def record(self, kind: str, **fields: object) -> None:
        """Append one event; the oldest event falls off at capacity."""
        event: Dict[str, object] = {"t": self._clock(), "kind": kind}
        event.update(fields)
        self._ring.append(event)
        self.recorded_total += 1

    def snapshot(self) -> List[Dict[str, object]]:
        return list(self._ring)

    def dump(self, reason: str, artifacts_dir: Optional[str] = None) -> Optional[str]:
        """Write the ring to ``flight-<name>-<pid>-<reason>-<seq>.json``
        in the artifacts dir (atomic; see export.atomic_write_text).  The
        pid keeps sibling processes sharing one artifacts dir — a
        cluster's three daemons all named ``daemon`` — from overwriting
        each other's black boxes.  Returns the path, or ``None`` when no
        artifacts dir is configured or the write failed — a dying process
        must never die harder because its black box could not be written.
        """
        directory = artifacts_dir or self.artifacts_dir
        if not directory:
            return None
        import os

        self.dumps += 1
        document = {
            "recorder": self.name,
            "reason": reason,
            "pid": os.getpid(),
            "sequence": self.dumps,
            "dumped_at": self._clock(),
            "capacity": self.capacity,
            "recorded_total": self.recorded_total,
            "events": self.snapshot(),
        }
        path = (
            f"{directory}/flight-{_slug(self.name)}-{os.getpid()}"
            f"-{_slug(reason)}-{self.dumps:03d}.json"
        )
        try:
            from repro.observability.export import atomic_write_text

            os.makedirs(directory, exist_ok=True)
            atomic_write_text(
                path, json.dumps(document, indent=2, sort_keys=True, default=str)
            )
        except OSError:
            return None
        return path

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "recorded_total": self.recorded_total,
            "buffered": len(self._ring),
            "dumps": self.dumps,
        }


class NullFlightRecorder:
    """The disabled recorder: records nothing, dumps nowhere."""

    __slots__ = ()
    enabled = False
    name = "null"
    recorded_total = 0
    dumps = 0

    def record(self, kind: str, **fields: object) -> None:
        return None

    def snapshot(self) -> List[Dict[str, object]]:
        return []

    def dump(self, reason: str, artifacts_dir: Optional[str] = None) -> None:
        return None

    def as_dict(self) -> Dict[str, object]:
        return {"name": "null", "recorded_total": 0, "buffered": 0, "dumps": 0}


NULL_FLIGHT_RECORDER = NullFlightRecorder()

#: The process-wide recorder.  A plain global on purpose — see the
#: module docstring for why this is not a ``ContextVar``.
_INSTALLED: "FlightRecorder | NullFlightRecorder" = NULL_FLIGHT_RECORDER


def install(
    recorder: "Optional[FlightRecorder | NullFlightRecorder]",
) -> "FlightRecorder | NullFlightRecorder":
    """Install the process-wide recorder (None resets to the null
    recorder); returns the previously installed one."""
    global _INSTALLED
    previous = _INSTALLED
    _INSTALLED = recorder if recorder is not None else NULL_FLIGHT_RECORDER
    return previous


def ambient() -> "FlightRecorder | NullFlightRecorder":
    """The installed process-wide recorder, or the null recorder."""
    return _INSTALLED
