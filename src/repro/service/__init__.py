"""Promotion-as-a-service: a fault-tolerant async daemon.

The pipeline and the supervised worker already exist as library
layers; this package puts a long-lived process in front of them.  See :mod:`repro.service.daemon` for the architecture
and ``docs/SERVICE.md`` for the wire protocol.
"""

from repro.service.admission import AdmissionController
from repro.service.breaker import CircuitBreaker
from repro.service.chaos import ServiceChaosConfig
from repro.service.client import ChaosTraffic, ServiceClient
from repro.service.config import ServiceConfig
from repro.service.daemon import PromotionDaemon, run_daemon
from repro.service.engine import EngineCrashError, PromotionEngine
from repro.service.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    JobInputError,
    JobValidationError,
    PayloadTooLargeError,
    RequestTimeoutError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.jobs import JobRequest, JobResult

# The sharded-tier modules are exported lazily (PEP 562): eager imports
# here would make ``python -m repro.service.router`` (and .cluster, the
# exact argv LocalCluster supervises) re-execute an already-imported
# module and warn on every subprocess boot.
_LAZY_EXPORTS = {
    "ClusterConfig": "repro.service.cluster",
    "LocalCluster": "repro.service.cluster",
    "ServiceProcess": "repro.service.cluster",
    "PromotionRouter": "repro.service.router",
    "RouterConfig": "repro.service.router",
    "hrw_order": "repro.service.routing",
    "routing_key": "repro.service.routing",
    "two_choice_order": "repro.service.routing",
}


def __getattr__(name):
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "AdmissionController",
    "AdmissionRejectedError",
    "ChaosTraffic",
    "CircuitBreaker",
    "ClusterConfig",
    "DeadlineExceededError",
    "EngineCrashError",
    "JobInputError",
    "JobRequest",
    "JobResult",
    "JobValidationError",
    "LocalCluster",
    "PayloadTooLargeError",
    "PromotionDaemon",
    "PromotionEngine",
    "PromotionRouter",
    "RequestTimeoutError",
    "RouterConfig",
    "ServiceChaosConfig",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceProcess",
    "ServiceUnavailableError",
    "hrw_order",
    "routing_key",
    "run_daemon",
    "two_choice_order",
]
