"""Cross-process plumbing for the promotion pipeline.

Two pieces:

* :mod:`repro.parallel.transport` — pickle-based IR payloads that move
  functions and modules between processes while preserving the
  module/global sharing discipline; the supervised promotion worker
  (:mod:`repro.robustness.supervise`) ships its module and results
  with them.
* :mod:`repro.parallel.fingerprint` — content fingerprints
  (:func:`content_fingerprint`, :func:`module_fingerprint`) that key
  the service router's sticky placement.

Parallelism itself is module-grain: the timing harness's parallel arm
runs one workload per worker process, and ``repro-route`` shards whole
modules across daemons.
"""

from repro.parallel.fingerprint import (
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
    "content_fingerprint",
    "globals_fingerprint",
    "module_fingerprint",
    "FunctionPayload",
    "ModulePayload",
    "TransportError",
    "export_profile",
    "import_profile",
]
