"""Parallel, cache-aware execution layer for the promotion pipeline.

Three pieces:

* :mod:`repro.parallel.cache` — a per-function :class:`AnalysisCache`
  memoizing dominator trees, iterated dominance frontiers, and liveness
  across pipeline phases, keyed by IR fingerprints so mutation is
  invalidation.
* :mod:`repro.parallel.transport` — pickle-based IR payloads that move
  functions and modules between processes while preserving the
  module/global sharing discipline; the supervised promotion worker
  (:mod:`repro.robustness.supervise`) ships its module and results
  with them.
* :mod:`repro.parallel.fingerprint` — identity fingerprints for cache
  invalidation plus *content* fingerprints (:func:`content_fingerprint`,
  :func:`module_fingerprint`) that key the service router's sticky
  placement.

Parallelism itself is module-grain: the timing harness's parallel arm
runs one workload per worker process, and ``repro-route`` shards whole
modules across daemons.
"""

from repro.parallel.cache import (
    AnalysisCache,
    CacheStats,
    activate,
    active_cache,
    dominator_tree,
    idf,
    liveness,
)
from repro.parallel.fingerprint import (
    cfg_fingerprint,
    code_fingerprint,
    content_fingerprint,
    globals_fingerprint,
    module_fingerprint,
)
from repro.parallel.transport import (
    FunctionPayload,
    ModulePayload,
    TransportError,
    export_profile,
    import_profile,
)

__all__ = [
    "AnalysisCache",
    "CacheStats",
    "activate",
    "active_cache",
    "dominator_tree",
    "idf",
    "liveness",
    "cfg_fingerprint",
    "code_fingerprint",
    "content_fingerprint",
    "globals_fingerprint",
    "module_fingerprint",
    "FunctionPayload",
    "ModulePayload",
    "TransportError",
    "export_profile",
    "import_profile",
]
