"""A circuit breaker over the promotion engine.

A single crashed worker is routine — the supervisor replaces it and
quarantines the poison function.  A *storm* of engine failures (every
job dying on arrival, the pool thrashing) is different:
continuing to admit jobs just feeds the fire.  The breaker counts
**consecutive** engine-level failures; at ``threshold`` it opens and the
daemon answers 503 (with a retry-after equal to the remaining backoff)
without touching the engine at all.

After ``reset_s`` the breaker half-opens: exactly one probe job is let
through.  Success closes the circuit and resets the backoff; failure
re-opens it with the backoff doubled (capped), the classic pattern.
Client-caused failures (bad payloads, compile errors, per-job deadline
misses) never count — only faults that indicate the *engine* is sick.

Time is injectable (``clock``) so tests drive state transitions without
sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.observability import flightrecorder

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_MAX_BACKOFF_MULTIPLIER = 16


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing and doubling
    backoff."""

    def __init__(
        self,
        threshold: int = 3,
        reset_s: float = 5.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if reset_s <= 0:
            raise ValueError(f"reset_s must be > 0, got {reset_s}")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock or time.monotonic
        self.state = CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._opened_at = 0.0
        self._backoff_multiplier = 1
        self._probe_inflight = False

    # -- queries ---------------------------------------------------------

    def _current_backoff_s(self) -> float:
        return self.reset_s * self._backoff_multiplier

    def retry_after_s(self) -> float:
        """Seconds until the breaker would next allow a probe."""
        if self.state != OPEN:
            return 0.0
        elapsed = self._clock() - self._opened_at
        return max(0.0, self._current_backoff_s() - elapsed)

    def allow(self) -> bool:
        """Whether a job may proceed right now.  An OPEN breaker whose
        backoff has elapsed transitions to HALF_OPEN and admits exactly
        one probe; further calls are refused until the probe reports."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._clock() - self._opened_at >= self._current_backoff_s():
                self.state = HALF_OPEN
                self._probe_inflight = True
                return True
            return False
        # HALF_OPEN: one probe at a time.
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    # -- transitions -----------------------------------------------------

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._probe_inflight = False
        if self.state != CLOSED:
            self.state = CLOSED
            self._backoff_multiplier = 1

    def record_neutral(self) -> None:
        """A client-caused outcome (bad payload, compile error, deadline
        miss): proves nothing about engine health, so it neither feeds
        the failure count nor closes a half-open circuit — it only
        releases the probe slot so the next job can try again."""
        self._probe_inflight = False

    def record_failure(self) -> None:
        self._probe_inflight = False
        if self.state == HALF_OPEN:
            # The probe failed: re-open with a longer backoff.
            self._backoff_multiplier = min(
                self._backoff_multiplier * 2, _MAX_BACKOFF_MULTIPLIER
            )
            self._trip()
            return
        self.consecutive_failures += 1
        if self.state == CLOSED and self.consecutive_failures >= self.threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = OPEN
        self.trips += 1
        self._opened_at = self._clock()
        self.consecutive_failures = 0
        # An opening breaker is exactly the moment whose prelude matters:
        # dump the ring so the failures that tripped it are on disk.
        recorder = flightrecorder.ambient()
        recorder.record(
            "breaker.open",
            trips=self.trips,
            backoff_s=self._current_backoff_s(),
        )
        recorder.dump("breaker-open")

    def as_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "threshold": self.threshold,
            "reset_s": self.reset_s,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
            "backoff_s": round(self._current_backoff_s(), 3),
            "retry_after_s": round(self.retry_after_s(), 3),
        }
