"""The run flags ``repro-minic`` and ``repro-report`` share.

``--timeout``/``--retries``/``--chaos`` run promotion in the supervised
worker (:class:`~repro.robustness.supervise.ResilienceOptions`);
``--trace-out``/``--metrics-out`` export the run's span trace and
metrics registry.  Exports are best-effort: a failed write warns on
stderr and never changes the exit code, so it can neither mask a
degraded exit nor manufacture a failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional


def add_run_flags(parser: argparse.ArgumentParser, requires: str = "") -> None:
    """Add the five shared flags to ``parser``; ``requires`` names a flag
    all of them need (it is appended to their help)."""
    note = f"; requires {requires}" if requires else ""
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-function wall-clock deadline in the supervised promotion "
        "worker; a hung worker is killed and the attempt retried" + note,
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts for transient failures before a function is "
        "quarantined to its unpromoted IR (default 2)" + note,
    )
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        help="inject seeded worker faults during promotion, e.g. "
        "'crash=0.1,hang=0.1,transient=0.2,seed=42,hang_seconds=5'" + note,
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the span trace (Chrome trace-event JSON; a .jsonl suffix "
        "writes the event log instead)" + note,
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the metrics registry as JSON" + note,
    )


def resilience_from(options: argparse.Namespace):
    """The :class:`ResilienceOptions` the flags ask for, or ``None`` for
    in-process promotion; a malformed value raises ``ValueError``."""
    from repro.robustness.supervise import ResilienceOptions

    return ResilienceOptions.from_flags(options.timeout, options.retries, options.chaos)


def observability_from(options: argparse.Namespace):
    """A recording :class:`~repro.observability.Observability` when an
    export flag is given, else ``None``."""
    if not (options.trace_out or options.metrics_out):
        return None
    from repro.observability import Observability

    return Observability.recording()


def write_best_effort(
    prog: str, what: str, path: Optional[str], write: Callable[[str], object]
) -> None:
    """``write(path)`` when ``path`` is set; an ``OSError`` becomes a
    ``prog: warning: cannot write <what> to <path>`` line on stderr."""
    if not path:
        return
    try:
        write(path)
    except OSError as exc:
        print(
            f"{prog}: warning: cannot write {what} to {path}: {exc.strerror or exc}",
            file=sys.stderr,
        )


def export_observability(
    prog: str, options: argparse.Namespace, observability, metadata: dict
) -> None:
    """Write ``--trace-out`` and ``--metrics-out`` from ``observability``."""
    from repro.observability import write_metrics, write_trace

    tracer, metrics = observability.tracer, observability.metrics
    write_best_effort(
        prog,
        "trace",
        options.trace_out,
        lambda path: write_trace(path, tracer, metrics, metadata),
    )
    write_best_effort(
        prog,
        "metrics",
        options.metrics_out,
        lambda path: write_metrics(path, metrics, metadata),
    )
