"""Service configuration: one frozen-ish bag of knobs for the daemon.

Everything that shapes the daemon's failure behaviour lives here —
queue bounds, deadlines, breaker thresholds, drain grace, slow-loris
timeouts — so tests can build a deliberately tiny service (one worker,
a two-slot queue, millisecond deadlines) and production-ish callers can
keep the defaults.  ``as_dict()`` is what ``/healthz`` reports, making
a running daemon's envelope inspectable.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.frontend.limits import InputLimits


def validate_edge(
    drain_grace_s: float,
    header_timeout_s: float,
    body_timeout_s: float,
    max_body_bytes: int,
) -> None:
    """The checks on the fields every HTTP front has — the daemon's
    :class:`ServiceConfig` and the router's
    :class:`~repro.service.router.RouterConfig`; ValueError on the
    first bad one."""
    for name, value in (
        ("drain_grace_s", drain_grace_s),
        ("header_timeout_s", header_timeout_s),
        ("body_timeout_s", body_timeout_s),
    ):
        if value <= 0:
            raise ValueError(f"{name} must be > 0, got {value}")
    if max_body_bytes < 1:
        raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")


class ServiceConfig:
    """Tunables for :class:`~repro.service.daemon.PromotionDaemon`.

    ``workers`` sizes the engine's thread pool; resilient jobs (any of
    ``timeout_s``/``retries``/``chaos``) additionally start one
    supervised worker process underneath their pool thread.  ``max_queue`` bounds
    *waiting* admissions on top of the ``workers`` in-flight slots —
    beyond that the service sheds load with a 429.  ``default_deadline_s``
    applies when a job names none; ``max_deadline_s`` clamps what a job
    may ask for.  ``breaker_threshold`` consecutive engine crashes open
    the circuit for ``breaker_reset_s`` (doubling per re-trip).
    ``drain_grace_s`` is how long a SIGTERM drain waits for in-flight
    jobs before giving up on them.  ``header_timeout_s`` /
    ``body_timeout_s`` are the slow-loris guards; ``max_body_bytes``
    caps request payloads.  ``limits`` are the frontend input limits
    applied to every submitted source.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_queue: int = 8,
        default_deadline_s: float = 30.0,
        max_deadline_s: float = 120.0,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 5.0,
        drain_grace_s: float = 10.0,
        heartbeat_s: float = 0.5,
        header_timeout_s: float = 5.0,
        body_timeout_s: float = 10.0,
        max_body_bytes: int = 2_500_000,
        limits: Optional[InputLimits] = None,
        result_cache_size: int = 64,
        artifacts_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if default_deadline_s <= 0 or max_deadline_s <= 0:
            raise ValueError("deadlines must be > 0")
        if default_deadline_s > max_deadline_s:
            raise ValueError(
                f"default_deadline_s ({default_deadline_s}) exceeds "
                f"max_deadline_s ({max_deadline_s})"
            )
        if breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, got {breaker_threshold}")
        if breaker_reset_s <= 0:
            raise ValueError(f"breaker_reset_s must be > 0, got {breaker_reset_s}")
        validate_edge(
            drain_grace_s=drain_grace_s,
            header_timeout_s=header_timeout_s,
            body_timeout_s=body_timeout_s,
            max_body_bytes=max_body_bytes,
        )
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        if result_cache_size < 0:
            raise ValueError(f"result_cache_size must be >= 0, got {result_cache_size}")
        self.host = host
        self.port = port
        self.workers = workers
        self.max_queue = max_queue
        self.default_deadline_s = default_deadline_s
        self.max_deadline_s = max_deadline_s
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.drain_grace_s = drain_grace_s
        self.heartbeat_s = heartbeat_s
        self.header_timeout_s = header_timeout_s
        self.body_timeout_s = body_timeout_s
        self.max_body_bytes = max_body_bytes
        self.limits = limits or InputLimits()
        self.result_cache_size = result_cache_size
        #: Where the flight recorder dumps its ring on crash, breaker
        #: trip, quarantine, or drain; ``None`` disables dumping (events
        #: still accumulate in memory for ``/healthz`` debugging).
        self.artifacts_dir = artifacts_dir

    def as_dict(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "max_queue": self.max_queue,
            "default_deadline_s": self.default_deadline_s,
            "max_deadline_s": self.max_deadline_s,
            "breaker_threshold": self.breaker_threshold,
            "breaker_reset_s": self.breaker_reset_s,
            "drain_grace_s": self.drain_grace_s,
            "heartbeat_s": self.heartbeat_s,
            "header_timeout_s": self.header_timeout_s,
            "body_timeout_s": self.body_timeout_s,
            "max_body_bytes": self.max_body_bytes,
            "limits": self.limits.as_dict(),
            "result_cache_size": self.result_cache_size,
            "artifacts_dir": self.artifacts_dir,
        }
