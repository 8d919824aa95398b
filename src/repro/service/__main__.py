"""``repro-serve``: run the promotion daemon.

Usage::

    repro-serve                         # HTTP on 127.0.0.1, ephemeral port
    repro-serve --port 8317 --workers 4
    repro-serve --stdio                 # JSONL over stdin/stdout too

The daemon prints exactly one ``listening on HOST:PORT`` line to stderr
once it is accepting (tooling parses it), serves until SIGTERM/SIGINT,
drains gracefully, and exits 0 on a clean drain or 3 when in-flight
jobs had to be abandoned at the grace deadline — the same "completed,
but degraded" contract the CLI uses.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.frontend.limits import InputLimits
from repro.service.config import ServiceConfig
from repro.service.daemon import run_daemon


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description="promotion-as-a-service daemon"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="engine worker threads"
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=8,
        help="admissions allowed to wait before load is shed with 429s",
    )
    parser.add_argument(
        "--default-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-job deadline when the job names none",
    )
    parser.add_argument(
        "--max-deadline",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="upper clamp on job-requested deadlines",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive engine failures that open the circuit",
    )
    parser.add_argument(
        "--breaker-reset",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="backoff before the open circuit half-opens",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long SIGTERM waits for in-flight jobs",
    )
    parser.add_argument(
        "--body-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="slow-loris guard: max time for a request body to arrive",
    )
    parser.add_argument(
        "--max-source-bytes",
        type=int,
        default=None,
        help="frontend input limit override",
    )
    parser.add_argument(
        "--stdio",
        action="store_true",
        help="also serve JSONL envelopes over stdin/stdout; EOF drains",
    )
    parser.add_argument(
        "--artifacts-dir",
        default=None,
        metavar="DIR",
        help="where the flight recorder dumps its ring on crash/drain",
    )
    options = parser.parse_args(argv)

    limits = None
    if options.max_source_bytes is not None:
        limits = InputLimits(max_source_bytes=options.max_source_bytes)
    try:
        config = ServiceConfig(
            host=options.host,
            port=options.port,
            workers=options.workers,
            max_queue=options.max_queue,
            default_deadline_s=options.default_deadline,
            max_deadline_s=options.max_deadline,
            breaker_threshold=options.breaker_threshold,
            breaker_reset_s=options.breaker_reset,
            drain_grace_s=options.drain_grace,
            body_timeout_s=options.body_timeout,
            limits=limits,
            artifacts_dir=options.artifacts_dir,
        )
    except ValueError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2

    def announce(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    try:
        clean = asyncio.run(run_daemon(config, options.stdio, announce))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        clean = True
    return 0 if clean else 3


# Re-export for callers that want the coroutine form.
__all__ = ["main", "run_daemon"]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
