"""Bounded retry with exponential backoff and seeded jitter.

Promotion is an optimization: a transient worker fault (an injected
chaos exception, a broken pipe to a dead worker, a timeout) should cost
one backoff-delayed re-attempt, not the function's promotion — and a
*deterministic* failure (a verification error, a promotion bug) should
cost exactly one attempt, because re-running deterministic code can only
reproduce it.  :class:`RetryPolicy` encodes that split, and the backoff
jitter is derived from a seed so a retry schedule is reproducible from
the diagnostics alone.

:class:`AttemptHistory` is the audit trail: one :class:`AttemptRecord`
per try, with the outcome, the error, and the backoff that followed —
threaded into ``PipelineDiagnostics.attempt_histories`` so a chaos run
can be reconstructed offline.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.robustness.faults import SeededChaos

#: Error *type names* treated as transient (worth retrying).  Names, not
#: classes: worker failures cross a process boundary and only the
#: exception's name survives the trip.
TRANSIENT_ERROR_TYPES: FrozenSet[str] = frozenset(
    {
        "TransientFaultError",  # injected chaos
        "BrokenPipeError",
        "ConnectionError",
        "ConnectionResetError",
        "EOFError",
        "TimeoutError",
    }
)


class RetryPolicy:
    """How many attempts a function gets and how long to wait between them.

    ``max_attempts`` counts *attempts*, not retries: the CLI's
    ``--retries N`` maps to ``max_attempts=N + 1``.  Backoff is capped
    exponential — ``base * 2^(attempt-1)``, at most ``max_delay`` — with
    deterministic half-jitter: the delay is scaled into
    ``[0.5, 1.0) * full`` by a hash of (seed, function, attempt), so
    concurrent retries decorrelate but a given run's schedule is exactly
    reproducible from its seed.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_base_s < 0 or backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.seed = seed

    def is_transient(self, error_type: Optional[str]) -> bool:
        return error_type in TRANSIENT_ERROR_TYPES

    def backoff_s(self, name: str, attempt: int) -> float:
        """Delay before re-attempting ``name`` after failed ``attempt``."""
        if attempt < 1:
            raise ValueError(f"attempt numbers start at 1, got {attempt}")
        full = min(self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_max_s)
        jitter = SeededChaos.draw_key(f"{self.seed}:{name}:{attempt}")
        return full * (0.5 + 0.5 * jitter)

    def as_dict(self) -> Dict[str, object]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "backoff_max_s": self.backoff_max_s,
            "seed": self.seed,
        }


class AttemptRecord:
    """One try at promoting one function."""

    #: Outcome vocabulary.  ``promoted`` and ``rolled_back`` are terminal
    #: (rolled_back = deterministic failure, never retried); the rest are
    #: transient classes that schedule a retry until attempts run out.
    PROMOTED = "promoted"
    ROLLED_BACK = "rolled_back"
    TRANSIENT = "transient"
    TIMEOUT = "timeout"
    WORKER_CRASH = "worker-crash"

    __slots__ = ("attempt", "outcome", "error_type", "reason", "backoff_s", "duration_ms")

    def __init__(
        self,
        attempt: int,
        outcome: str,
        error_type: Optional[str] = None,
        reason: Optional[str] = None,
        backoff_s: float = 0.0,
        duration_ms: float = 0.0,
    ) -> None:
        self.attempt = attempt
        self.outcome = outcome
        self.error_type = error_type
        self.reason = reason
        #: Delay scheduled *after* this attempt (0 when terminal).
        self.backoff_s = backoff_s
        self.duration_ms = duration_ms

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error_type": self.error_type,
            "reason": self.reason,
            "backoff_s": round(self.backoff_s, 6),
            "duration_ms": round(self.duration_ms, 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttemptRecord({self.attempt}, {self.outcome!r}, {self.error_type!r})"


class AttemptHistory:
    """Every attempt one function got, in order."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.records: List[AttemptRecord] = []

    def add(self, record: AttemptRecord) -> AttemptRecord:
        self.records.append(record)
        return record

    @property
    def attempts(self) -> int:
        return len(self.records)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "attempts": self.attempts,
            "records": [record.as_dict() for record in self.records],
        }
