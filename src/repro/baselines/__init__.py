"""Related-work baselines reimplemented for comparison (paper §6).

* :mod:`repro.baselines.lucooper` — Lu & Cooper, "Register Promotion in
  C Programs" (PLDI 1997): loop-based, profile-blind, rejects a variable
  in any loop containing an ambiguous (aliased) reference to it.
* :mod:`repro.baselines.mahlke` — Mahlke's IMPACT global variable
  migration (1992): superblock-based and profile-driven, but gives up
  when a side-effecting call sits on the hot trace.

Each is a per-function promoter with
:func:`~repro.promotion.driver.promote_function`'s signature, run by the
one :class:`~repro.promotion.pipeline.PromotionPipeline`::

    PromotionPipeline(promoter=lu_cooper_promote).run(module)

Both also reuse this repository's web machinery for the mechanical
parts, so differences in results isolate the *policy* differences the
paper argues about (profile use, partial promotion, web granularity,
interval recursion).
"""

from repro.baselines.lucooper import lu_cooper_promote
from repro.baselines.mahlke import mahlke_promote

#: ``repro-minic --baseline`` name -> promoter.
BASELINES = {"lucooper": lu_cooper_promote, "mahlke": mahlke_promote}

__all__ = [
    "BASELINES",
    "lu_cooper_promote",
    "mahlke_promote",
]
