"""Transactional-pipeline machinery: snapshots, rollback, divergence
bisection, structured diagnostics, and fault injection.

The promotion pipeline must degrade gracefully on a production-scale
module: promote what it can, roll back what it cannot, and explain why.
This package supplies the pieces:

``snapshot``
    Pickled images of one function's IR that share the function, its
    module and the module's globals.  An image restores into the
    original :class:`~repro.ir.function.Function` object, so every
    promotion is a transaction, and installs into another module's
    function of the same name, which is how the supervised worker ships
    promoted IR back.

``diagnostics``
    Structured per-function outcomes (promoted / rolled_back / skipped),
    timings, warnings, and a bisection report — serializable to JSON and
    surfaced on :class:`~repro.promotion.pipeline.PipelineResult`.

``bisect``
    Delta-debugging over the set of transformed functions: when the
    post-promotion re-execution diverges, isolate a minimal culprit set
    and roll only those back.

``faults``
    A :class:`FaultInjector` that deliberately corrupts IR (one method
    per corruption class), an :class:`UnsoundAliasModel` wrapper, and
    :class:`ChaosConfig` — seeded worker-level chaos (crash, hang,
    transient exception) for exercising the supervised worker
    end-to-end.

``supervise`` / ``retry``
    Resilient promotion: phases 3+4 run in one supervised worker
    process with per-function wall-clock deadlines, bounded retry with
    seeded exponential backoff (:class:`RetryPolicy`), a fresh worker
    after every crash or hang, and quarantine: a function still failing
    when its attempts run out keeps its original unpromoted IR instead
    of failing the module.  Enabled via
    ``PromotionPipeline(resilience=ResilienceOptions(...))``.
"""

from repro.robustness.bisect import isolate_culprits
from repro.robustness.diagnostics import (
    BisectionReport,
    FunctionOutcome,
    PipelineDiagnostics,
)
from repro.robustness.faults import (
    ChaosConfig,
    FaultInjector,
    TransientFaultError,
    UnsoundAliasModel,
)
from repro.robustness.retry import (
    AttemptHistory,
    AttemptRecord,
    RetryPolicy,
    TRANSIENT_ERROR_TYPES,
)
from repro.robustness.snapshot import (
    FunctionSnapshot,
    FunctionState,
    TransportError,
    capture_state,
    snapshot_function,
)
from repro.robustness.supervise import (
    ResilienceOptions,
    Supervisor,
    SupervisorError,
    SupervisorReport,
)

__all__ = [
    "AttemptHistory",
    "AttemptRecord",
    "BisectionReport",
    "ChaosConfig",
    "FaultInjector",
    "FunctionOutcome",
    "FunctionSnapshot",
    "FunctionState",
    "PipelineDiagnostics",
    "ResilienceOptions",
    "RetryPolicy",
    "Supervisor",
    "SupervisorError",
    "SupervisorReport",
    "TRANSIENT_ERROR_TYPES",
    "TransientFaultError",
    "TransportError",
    "UnsoundAliasModel",
    "capture_state",
    "isolate_culprits",
    "snapshot_function",
]
