"""Mahlke's superblock global variable migration (IMPACT, 1992).

"The global variable migration optimization of the IMPACT compiler
promotes global scalar variables, array elements, or local variables in
super blocks.  This algorithm is also loop based and uses profiling
information.  Typically, function calls or unknown pointer references
that are less frequently executed will not be included in a superblock.
If there are function calls in the super block that are not side-effect
free, promotion is not attempted in that superblock."  (Paper §6.)

Model: superblocks are hot traces through innermost loops.  We
approximate trace membership by execution frequency — a block belongs to
the superblock when it runs at least ``hot_fraction`` of the loop
header's frequency.  A variable is migrated in a loop when every aliased
reference to it sits *off* the trace (cold); compensation at the cold
blocks then corresponds to the bookkeeping code superblock formation
would have placed at side exits.  Variables with an aliased reference on
the trace are rejected, which is the policy gap the paper's algorithm
closes (it weighs such references by profile instead).

Scope differences from the paper's algorithm: innermost loops only, and
whole-variable granularity (no webs).
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

#: A block is on the superblock (hot trace) when its frequency is at
#: least this fraction of the loop header's.
HOT_FRACTION = 0.5


def mahlke_promote(
    function: Function,
    mssa: MemorySSA,
    profile: ProfileData,
    interval_tree: IntervalTree,
    options: Optional[PromotionOptions] = None,
    hot_fraction: float = HOT_FRACTION,
) -> FunctionPromotionStats:
    """Migrate variables per Mahlke: innermost loops whose hot trace has
    no aliased reference to them.

    A :class:`~repro.promotion.pipeline.PromotionPipeline` ``promoter``;
    bind another ``hot_fraction`` with :func:`functools.partial`, which
    stays picklable for the supervised path.  ``options`` is accepted
    only so the signature matches
    :func:`~repro.promotion.driver.promote_function`.
    """
    stats = FunctionPromotionStats()
    domtree = interval_tree.domtree
    for interval in interval_tree.bottom_up():
        if interval.is_root or interval.children:
            continue  # innermost loops only
        _migrate_in_loop(
            function, mssa, interval, profile, domtree, stats, hot_fraction
        )
    return stats


def _migrate_in_loop(
    function: Function,
    mssa: MemorySSA,
    interval: Interval,
    profile: ProfileData,
    domtree: DominatorTree,
    stats: FunctionPromotionStats,
    hot_fraction: float,
) -> None:
    header_freq = max(1, profile.freq(interval.header))
    hot_blocks: Set[int] = {
        id(b) for b in interval.blocks if profile.freq(b) >= hot_fraction * header_freq
    }
    webs = construct_ssa_webs(function, interval)
    for var_name, var_webs in sorted(webs_by_variable(webs).items()):
        aliased = [
            (inst, name)
            for w in var_webs
            for inst, name in w.aliased_load_refs + w.aliased_store_refs
        ]
        if any(id(inst.block) in hot_blocks for inst, _ in aliased):
            stats.webs_seen += len(var_webs)
            stats.webs_skipped += len(var_webs)
            continue  # a side-effecting reference on the trace: give up
        for web in var_webs:
            promote_web_unconditionally(
                function, mssa, web, interval, profile, domtree, stats
            )
