"""Structured pipeline diagnostics.

Every function the pipeline touches gets a :class:`FunctionOutcome`
(promoted / rolled_back / skipped / quarantined) with the pass stage,
the reason, and the time spent.  :class:`PipelineDiagnostics` aggregates
outcomes, free-form warnings, the divergence-bisection report, and —
when the supervised worker ran — per-function attempt histories, the
structured fallback reason, and the supervisor's retry/timeout/
crash/quarantine counters, and serializes the lot to JSON for the
``--diagnostics`` CLI flag and bench logs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence


class FunctionOutcome:
    """What happened to one function during a pipeline run."""

    PROMOTED = "promoted"
    ROLLED_BACK = "rolled_back"
    SKIPPED = "skipped"
    QUARANTINED = "quarantined"

    def __init__(
        self,
        name: str,
        status: str,
        stage: Optional[str] = None,
        reason: Optional[str] = None,
        error_type: Optional[str] = None,
        duration_ms: float = 0.0,
        webs_promoted: int = 0,
        attempts: int = 0,
    ) -> None:
        self.name = name
        self.status = status
        #: Pipeline stage the outcome was decided in: ``prepare``,
        #: ``memssa``, ``promote``, ``cleanup``, ``verify``,
        #: ``re-execution``, or ``chaos`` (an injected worker fault).
        self.stage = stage
        self.reason = reason
        self.error_type = error_type
        self.duration_ms = duration_ms
        self.webs_promoted = webs_promoted
        #: Supervised attempts this outcome consumed (0 when the run was
        #: not supervised).
        self.attempts = attempts

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "stage": self.stage,
            "reason": self.reason,
            "error_type": self.error_type,
            "duration_ms": round(self.duration_ms, 3),
            "webs_promoted": self.webs_promoted,
            "attempts": self.attempts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionOutcome({self.name!r}, {self.status}, stage={self.stage})"


class BisectionReport:
    """How divergence bisection went: candidates, culprits, cost."""

    def __init__(
        self,
        candidates: Sequence[str],
        culprits: Sequence[str],
        tests_run: int,
        resolved: bool,
    ) -> None:
        self.candidates = list(candidates)
        self.culprits = list(culprits)
        self.tests_run = tests_run
        #: False when behaviour still diverged with every candidate
        #: rolled back (the divergence is not promotion's fault).
        self.resolved = resolved

    def as_dict(self) -> Dict[str, object]:
        return {
            "candidates": self.candidates,
            "culprits": self.culprits,
            "tests_run": self.tests_run,
            "resolved": self.resolved,
        }


class PipelineDiagnostics:
    """Aggregated per-run diagnostics, attached to ``PipelineResult``."""

    def __init__(self) -> None:
        self.outcomes: Dict[str, FunctionOutcome] = {}
        self.warnings: List[str] = []
        self.bisection: Optional[BisectionReport] = None
        #: Where block frequencies came from: ``interpreter`` (profiling
        #: run completed), ``estimator`` (interpreter not used or entry
        #: missing), or ``estimator-fallback`` (the profiling run hit the
        #: interpreter step limit and the pipeline fell back).
        self.profile_source: Optional[str] = None
        #: Structured cause of a supervised-to-in-process fallback
        #: (``{"error_type", "detail"}``), ``None`` when the worker ran
        #: fine or was never requested.
        self.fallback_reason: Optional[Dict[str, Optional[str]]] = None
        #: Per-function attempt histories from the supervisor
        #: (name -> ``AttemptHistory.as_dict()``); empty otherwise.
        self.attempt_histories: Dict[str, Dict[str, object]] = {}
        #: The supervisor's counters (retries, timeouts,
        #: worker_crashes, transient_faults, pool_rebuilds, quarantined)
        #: plus its configuration; ``None`` when it did not run.
        self.resilience: Optional[Dict[str, object]] = None
        #: Versioned observability section (``{"version", "profile_source",
        #: "config", "spans", "metrics"}``) written at the end of an
        #: *observed* run; stays ``None`` when tracing is disabled so a
        #: disabled run's diagnostics are byte-identical to pre-layer ones.
        self.observability: Optional[Dict[str, object]] = None
        #: The decision-journal roll-up (``DecisionJournal.summary()``)
        #: when journaling ran; ``None`` keeps a journal-off run's
        #: diagnostics byte-identical to pre-journal ones.
        self.decisions: Optional[Dict[str, object]] = None

    # -- recording -------------------------------------------------------

    def record(self, outcome: FunctionOutcome) -> FunctionOutcome:
        self.outcomes[outcome.name] = outcome
        return outcome

    def record_promoted(
        self, name: str, duration_ms: float = 0.0, webs_promoted: int = 0
    ) -> FunctionOutcome:
        return self.record(
            FunctionOutcome(
                name,
                FunctionOutcome.PROMOTED,
                duration_ms=duration_ms,
                webs_promoted=webs_promoted,
            )
        )

    def record_rollback(
        self,
        name: str,
        stage: str,
        error: Optional[BaseException] = None,
        reason: Optional[str] = None,
        duration_ms: float = 0.0,
        error_type: Optional[str] = None,
    ) -> FunctionOutcome:
        # ``error_type`` overrides for failures that crossed a process
        # boundary, where only the exception's name survived the trip.
        return self.record(
            FunctionOutcome(
                name,
                FunctionOutcome.ROLLED_BACK,
                stage=stage,
                reason=reason or first_line(error),
                error_type=error_type
                or (type(error).__name__ if error is not None else None),
                duration_ms=duration_ms,
            )
        )

    def record_skip(
        self,
        name: str,
        stage: str,
        error: Optional[BaseException] = None,
        reason: Optional[str] = None,
        duration_ms: float = 0.0,
    ) -> FunctionOutcome:
        return self.record(
            FunctionOutcome(
                name,
                FunctionOutcome.SKIPPED,
                stage=stage,
                reason=reason or first_line(error),
                error_type=type(error).__name__ if error is not None else None,
                duration_ms=duration_ms,
            )
        )

    def record_quarantine(
        self,
        name: str,
        reason: Optional[str] = None,
        error_type: Optional[str] = None,
        stage: Optional[str] = None,
        duration_ms: float = 0.0,
        attempts: int = 0,
    ) -> FunctionOutcome:
        return self.record(
            FunctionOutcome(
                name,
                FunctionOutcome.QUARANTINED,
                stage=stage,
                reason=reason,
                error_type=error_type,
                duration_ms=duration_ms,
                attempts=attempts,
            )
        )

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    # -- queries ---------------------------------------------------------

    def _named(self, status: str) -> List[str]:
        return [o.name for o in self.outcomes.values() if o.status == status]

    @property
    def promoted_functions(self) -> List[str]:
        return self._named(FunctionOutcome.PROMOTED)

    @property
    def rolled_back_functions(self) -> List[str]:
        return self._named(FunctionOutcome.ROLLED_BACK)

    @property
    def skipped_functions(self) -> List[str]:
        return self._named(FunctionOutcome.SKIPPED)

    @property
    def quarantined_functions(self) -> List[str]:
        return self._named(FunctionOutcome.QUARANTINED)

    @property
    def clean(self) -> bool:
        """True when nothing was rolled back, skipped, or quarantined
        (``--strict``)."""
        return (
            not self.rolled_back_functions
            and not self.skipped_functions
            and not self.quarantined_functions
        )

    @property
    def degraded(self) -> bool:
        """True when the run completed only by degrading: a function was
        quarantined, the worker could not start and promotion ran in
        process, or the supervisor had to retry or replace the worker
        (the CLI's exit code 3)."""
        if self.quarantined_functions or self.fallback_reason is not None:
            return True
        if self.resilience is None:
            return False
        return bool(
            self.resilience.get("retries")
            or self.resilience.get("timeouts")
            or self.resilience.get("worker_crashes")
            or self.resilience.get("transient_faults")
            or self.resilience.get("pool_rebuilds")
            or self.resilience.get("quarantined")
        )

    def summary(self) -> str:
        text = (
            f"{len(self.promoted_functions)} promoted, "
            f"{len(self.rolled_back_functions)} rolled back, "
            f"{len(self.skipped_functions)} skipped"
        )
        if self.quarantined_functions:
            text += f", {len(self.quarantined_functions)} quarantined"
        return text

    # -- serialization ---------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "summary": self.summary(),
            "profile_source": self.profile_source,
            "functions": [o.as_dict() for o in self.outcomes.values()],
            "warnings": list(self.warnings),
            "bisection": self.bisection.as_dict() if self.bisection else None,
            "fallback_reason": dict(self.fallback_reason)
            if self.fallback_reason
            else None,
            "attempt_histories": dict(self.attempt_histories),
            "resilience": dict(self.resilience) if self.resilience else None,
            "observability": dict(self.observability) if self.observability else None,
            "decisions": dict(self.decisions) if self.decisions else None,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def write(self, path: str) -> None:
        from repro.observability.export import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")


def first_line(error: Optional[BaseException]) -> Optional[str]:
    """The exception's first message line, or its type name when the
    message is empty."""
    if error is None:
        return None
    text = str(error) or type(error).__name__
    return text.splitlines()[0]
