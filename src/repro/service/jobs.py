"""Job envelopes: the wire-level request/response shapes.

A *job* asks the service to compile (mini-C) or parse (textual IR) a
program, run the promotion pipeline on it, execute the result, and
return the printed output, the return value, and the promoted IR text.
:meth:`JobRequest.from_payload` is the strict validator — unknown keys,
wrong types, and out-of-range options all bounce with a structured
:class:`~repro.service.errors.JobValidationError` before any work is
admitted, so a malformed payload can never occupy a worker slot.

:class:`JobResult` is the success shape.  ``ir`` is the promoted
module's exact textual form — the byte-identity invariant is stated
over this string: a job that completes through the daemon must yield
the same ``ir``/``output``/``return_value`` as a fresh serial
:class:`~repro.promotion.pipeline.PromotionPipeline` run of the same
payload, no matter what chaos, shedding, or degradation happened around
it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.observability import TraceContext
from repro.profile.interp import MAX_STEPS
from repro.robustness.faults import ChaosConfig
from repro.service.errors import JobValidationError

KINDS = ("minic", "ir")

#: Option keys a job may set, with (type, validator) pairs enforced by
#: :meth:`JobRequest.from_payload`.
_MAX_RETRIES = 16


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobValidationError(message)


class JobRequest:
    """A validated promotion job."""

    __slots__ = (
        "kind",
        "source",
        "entry",
        "args",
        "deadline_s",
        "timeout_s",
        "retries",
        "chaos",
        "max_steps",
        "trace",
    )

    def __init__(
        self,
        kind: str,
        source: str,
        entry: str = "main",
        args: Optional[List[int]] = None,
        deadline_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        chaos: Optional[str] = None,
        max_steps: Optional[int] = None,
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.kind = kind
        self.source = source
        self.entry = entry
        self.args = list(args or [])
        self.deadline_s = deadline_s
        self.timeout_s = timeout_s
        self.retries = retries
        #: The chaos spec string (validated), e.g. ``"crash=1.0,seed=1"``.
        self.chaos = chaos
        self.max_steps = max_steps
        #: Distributed trace context carried inside the envelope — the
        #: way headerless transports (stdio JSONL) join a trace.  HTTP
        #: callers use the ``traceparent`` header instead; the daemon
        #: prefers the header when both are present.
        self.trace = trace

    @property
    def wants_resilience(self) -> bool:
        """Whether the job asks for the supervised promotion worker."""
        return (
            self.timeout_s is not None
            or self.retries is not None
            or self.chaos is not None
        )

    @property
    def is_default_run(self) -> bool:
        """True for a plain in-process job with no custom knobs — the
        only shape the engine's result cache may serve, so cached entries
        are always byte-identical to a fresh default run."""
        return not self.wants_resilience and self.max_steps is None

    def cache_key_material(self) -> str:
        return "\x00".join(
            [
                self.kind,
                self.source,
                self.entry,
                ",".join(str(a) for a in self.args),
            ]
        )

    @classmethod
    def from_payload(cls, payload: Any) -> "JobRequest":
        """Validate a decoded JSON payload into a job; raises
        :class:`JobValidationError` naming the first offending field."""
        _require(isinstance(payload, dict), "job payload must be a JSON object")
        known = {
            "kind",
            "source",
            "entry",
            "args",
            "options",
            "trace",
        }
        unknown = sorted(set(payload) - known)
        _require(not unknown, f"unknown job field(s): {', '.join(unknown)}")

        kind = payload.get("kind", "minic")
        _require(kind in KINDS, f"job kind must be one of {'/'.join(KINDS)}")
        source = payload.get("source")
        _require(isinstance(source, str), "job field 'source' must be a string")
        _require(bool(source.strip()), "job field 'source' must be non-empty")
        entry = payload.get("entry", "main")
        _require(
            isinstance(entry, str) and entry.isidentifier(),
            "job field 'entry' must be an identifier",
        )
        args = payload.get("args", [])
        _require(
            isinstance(args, list)
            and all(isinstance(a, int) and not isinstance(a, bool) for a in args),
            "job field 'args' must be a list of integers",
        )
        _require(len(args) <= 64, "job field 'args' is limited to 64 values")

        trace_spec = payload.get("trace")
        trace = None
        if trace_spec is not None:
            _require(
                isinstance(trace_spec, str),
                "job field 'trace' must be a traceparent string",
            )
            trace = TraceContext.from_traceparent(trace_spec)
            _require(
                trace is not None,
                "job field 'trace' is not a valid traceparent "
                "(00-<32 hex>-<16 hex>-<2 hex>)",
            )

        options = payload.get("options", {})
        _require(isinstance(options, dict), "job field 'options' must be an object")
        known_options = {
            "deadline_s",
            "timeout_s",
            "retries",
            "chaos",
            "max_steps",
        }
        unknown = sorted(set(options) - known_options)
        _require(not unknown, f"unknown job option(s): {', '.join(unknown)}")

        deadline_s = _optional_number(options, "deadline_s")
        if deadline_s is not None:
            _require(deadline_s > 0, "job option 'deadline_s' must be > 0")
        timeout_s = _optional_number(options, "timeout_s")
        if timeout_s is not None:
            _require(timeout_s > 0, "job option 'timeout_s' must be > 0")

        retries = options.get("retries")
        if retries is not None:
            _require(
                isinstance(retries, int) and not isinstance(retries, bool),
                "job option 'retries' must be an integer",
            )
            _require(
                0 <= retries <= _MAX_RETRIES,
                f"job option 'retries' must be in 0..{_MAX_RETRIES}",
            )

        chaos = options.get("chaos")
        if chaos is not None:
            _require(isinstance(chaos, str), "job option 'chaos' must be a string")
            try:
                ChaosConfig.parse(chaos)
            except ValueError as exc:
                raise JobValidationError(f"job option 'chaos': {exc}") from None

        max_steps = options.get("max_steps")
        if max_steps is not None:
            _require(
                isinstance(max_steps, int) and not isinstance(max_steps, bool),
                "job option 'max_steps' must be an integer",
            )
            _require(
                1 <= max_steps <= MAX_STEPS,
                f"job option 'max_steps' must be in 1..{MAX_STEPS}",
            )

        return cls(
            kind=kind,
            source=source,
            entry=entry,
            args=args,
            deadline_s=deadline_s,
            timeout_s=timeout_s,
            retries=retries,
            chaos=chaos,
            max_steps=max_steps,
            trace=trace,
        )


def _optional_number(options: Dict[str, Any], key: str) -> Optional[float]:
    value = options.get(key)
    if value is None:
        return None
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"job option {key!r} must be a number",
    )
    return float(value)


class JobResult:
    """A completed job: the pipeline's observable behaviour plus the
    promoted IR text and a degradation summary."""

    __slots__ = (
        "job_id",
        "ir",
        "output",
        "return_value",
        "output_matches",
        "degraded",
        "quarantined",
        "rolled_back",
        "duration_ms",
        "cached",
        "trace_id",
    )

    def __init__(
        self,
        job_id: str,
        ir: str,
        output: List[str],
        return_value: int,
        output_matches: bool,
        degraded: bool,
        quarantined: List[str],
        rolled_back: List[str],
        duration_ms: float,
        cached: bool = False,
        trace_id: Optional[str] = None,
    ) -> None:
        self.job_id = job_id
        self.ir = ir
        self.output = output
        self.return_value = return_value
        self.output_matches = output_matches
        self.degraded = degraded
        self.quarantined = quarantined
        self.rolled_back = rolled_back
        self.duration_ms = duration_ms
        self.cached = cached
        #: The distributed trace the job ran under; stamped by the
        #: daemon (never cached — each request gets its own).
        self.trace_id = trace_id

    def as_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "status": "degraded" if self.degraded else "ok",
            "ir": self.ir,
            "output": list(self.output),
            "return_value": self.return_value,
            "output_matches": self.output_matches,
            "degraded": self.degraded,
            "quarantined": list(self.quarantined),
            "rolled_back": list(self.rolled_back),
            "duration_ms": round(self.duration_ms, 3),
            "cached": self.cached,
            "trace_id": self.trace_id,
        }
