"""Lu & Cooper's loop-based register promotion (PLDI 1997).

"For each loop nest, the algorithm computes the set of variables that can
be promoted in the loop.  Any variable that has an ambiguous use in the
loop is not considered for promotion.  For variables that are promotable
in [the] current loop but not in the enclosing outer loop, loads and
stores are inserted at the loop preheader and tails."  (Paper §6.)

Policy differences from the paper's algorithm, all reproduced here:

* **loop scopes only** — no root region, so straight-line code keeps its
  memory traffic;
* **all-or-nothing per loop** — one aliased reference (call, pointer
  load/store) to a variable anywhere in the loop disqualifies it there,
  "even if these calls are executed very infrequently";
* **profile-blind** — promotion happens wherever legal, never weighed
  against compensation cost (there is none: no compensation code exists
  in this scheme);
* **outermost-first** — a variable is promoted in the largest enclosing
  loop where it is unambiguous; inner loops only get the leftovers.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.analysis.dominance import DominatorTree
from repro.analysis.intervals import Interval, IntervalTree
from repro.ir.function import Function
from repro.memory.memssa import MemorySSA
from repro.profile.profiles import ProfileData
from repro.promotion.driver import FunctionPromotionStats, PromotionOptions
from repro.promotion.webs import construct_ssa_webs
from repro.baselines.common import promote_web_unconditionally, webs_by_variable


def lu_cooper_promote(
    function: Function,
    mssa: MemorySSA,
    profile: ProfileData,
    interval_tree: IntervalTree,
    options: Optional[PromotionOptions] = None,
) -> FunctionPromotionStats:
    """Promote per Lu & Cooper: outermost unambiguous loop per variable.

    A :class:`~repro.promotion.pipeline.PromotionPipeline` ``promoter``.
    The policy has no tunables: ``options`` is accepted only so the
    signature matches :func:`~repro.promotion.driver.promote_function`.
    """
    stats = FunctionPromotionStats()
    domtree = DominatorTree.compute(function)
    for outer in interval_tree.root.children:
        _visit(function, mssa, outer, profile, domtree, stats)
    return stats


def _visit(
    function: Function,
    mssa: MemorySSA,
    interval: Interval,
    profile: ProfileData,
    domtree: DominatorTree,
    stats: FunctionPromotionStats,
) -> None:
    webs = construct_ssa_webs(function, interval)
    grouped = webs_by_variable(webs)
    promoted_vars: Set[str] = set()
    for var_name, var_webs in sorted(grouped.items()):
        if any(w.aliased_load_refs or w.aliased_store_refs for w in var_webs):
            continue  # ambiguous use somewhere in the loop: reject here
        for web in var_webs:
            promote_web_unconditionally(
                function, mssa, web, interval, profile, domtree, stats
            )
        promoted_vars.add(var_name)
    # Recurse for the variables this loop could not handle; promoted
    # variables have no remaining references inside.
    for child in interval.children:
        _visit(function, mssa, child, profile, domtree, stats)
