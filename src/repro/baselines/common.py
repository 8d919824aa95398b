"""Shared mechanics for the baseline promoters.

The baselines differ from the paper's algorithm in *policy* (which scopes
and variables to promote), not in mechanics, so they reuse
:class:`repro.promotion.webpromote.WebPromotion` for the transformation
itself.  They run inside :class:`repro.promotion.pipeline.PromotionPipeline`
as its ``promoter``, so preparation, profiling, cleanup, verification,
rollback and the behaviour check are the paper pipeline's own.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.dominance import DominatorTree
from repro.analysis.intervals import Interval
from repro.ir.function import Function
from repro.memory.memssa import MemorySSA
from repro.memory.resources import MemName
from repro.profile.profiles import ProfileData
from repro.promotion.driver import FunctionPromotionStats, _promote_no_defs_web
from repro.promotion.profitability import plan_web
from repro.promotion.webpromote import WebPromotion
from repro.promotion.webs import Web


def promote_web_unconditionally(
    function: Function,
    mssa: MemorySSA,
    web: Web,
    interval: Interval,
    profile: ProfileData,
    domtree: DominatorTree,
    stats: FunctionPromotionStats,
) -> None:
    """Promote one web without a profitability gate (the baselines make
    their decision *before* reaching this point)."""
    stats.webs_seen += 1
    entry_name = mssa.entry_names.get(web.var)
    if entry_name is None:
        entry_name = MemName(web.var, 0, None)
        mssa.entry_names[web.var] = entry_name

    if not web.has_defs:
        if not web.load_refs:
            stats.webs_skipped += 1
            return
        _promote_no_defs_web(function, web, interval, stats)
        stats.webs_promoted += 1
        return

    plan = plan_web(web, profile, domtree)
    plan.remove_stores = bool(web.store_refs)
    if not plan.replaceable_loads and not web.store_refs:
        stats.webs_skipped += 1
        return
    promo = WebPromotion(function, plan, domtree, entry_name)
    promo.init_vr_map()
    promo.insert_loads_at_phi_leaves()
    promo.replace_loads_by_copies()
    if plan.remove_stores:
        promo.insert_stores_for_aliased_loads()
        promo.insert_stores_at_interval_tails()
        # Old set restricted to this web's names; see the corresponding
        # comment in repro.promotion.driver.
        promo.run_ssa_update(list(web.names))
    stats.webs_promoted += 1
    stats.absorb(promo.stats)


def webs_by_variable(webs: List[Web]) -> Dict[str, List[Web]]:
    grouped: Dict[str, List[Web]] = {}
    for web in webs:
        grouped.setdefault(web.var.name, []).append(web)
    return grouped
