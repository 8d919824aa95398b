"""The interval-tree promotion driver (Fig. 2).

``promote_function`` walks the interval tree bottom-up; in each interval
it builds the memory SSA webs and considers each web independently for
promotion ("promotion in an interval results in the insertion of loads
and stores in the parent interval, and these loads and stores are
considered for elimination when the parent interval is processed").  The
whole function body is the final scope (the root region), so top-level
code is promoted too, with stores sinking to the returns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.dominance import DominatorTree
from repro.analysis.intervals import Interval, IntervalTree
from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.memory.memssa import MemorySSA
from repro.memory.resources import MemName, MemoryVar
from repro.observability import decisions as decision_journal
from repro.profile.profiles import ProfileData
from repro.promotion.profitability import plan_no_defs_web, plan_web
from repro.promotion.webpromote import WebPromotion
from repro.promotion.webs import Web, construct_ssa_webs
from repro.ssa.incremental import ClonedResourceUpdate


class PromotionError(RuntimeError):
    """An unexpected failure inside :func:`promote_function`, annotated
    with the function, interval, and web it occurred in so the
    transactional pipeline's rollback diagnostics can attribute it
    without parsing a traceback.  The original exception is chained as
    ``__cause__``."""

    def __init__(
        self,
        message: str,
        function: Optional[str] = None,
        interval: Optional[str] = None,
        var: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.function = function
        self.interval = interval
        self.var = var


class PromotionOptions:
    """Tunables (each is an ablation arm in the benchmarks)."""

    def __init__(
        self,
        promote_root: bool = True,
        remove_stores: bool = True,
        per_web: bool = True,
        require_profit: bool = True,
        pressure_limit: Optional[int] = None,
        count_tail_stores: bool = True,
    ) -> None:
        #: Promote in the whole-function root region as well as loops.
        self.promote_root = promote_root
        #: Allow the store-removal half (else values are kept in memory
        #: and a register simultaneously; only loads are removed).
        self.remove_stores = remove_stores
        #: Web granularity: when False, all webs of a variable in an
        #: interval are merged first (whole-variable promotion — the
        #: coarse alternative §4.2 argues against).
        self.per_web = per_web
        #: When False, promote regardless of the profile-weighted profit
        #: (the profile-blind ablation).
        self.require_profit = require_profit
        #: Register-pressure-aware gating (an extension addressing the
        #: paper's Table 3 observation that promotion "requires more
        #: registers to color the graph"): stop promoting in a function
        #: once its interference graph needs this many colors.
        self.pressure_limit = pressure_limit
        #: Refinement over the paper (on by default): charge
        #: interval-tail stores to the store profit.  The paper's formula
        #: omits them, which makes the ``>= 0`` tie rule non-idempotent
        #: and lets a web whose only "removed" store is re-materialized
        #: at the tails net-add a compensating load (see
        #: repro.promotion.profitability.plan_web).  Disable for the
        #: strict-paper ablation arm.
        self.count_tail_stores = count_tail_stores


class FunctionPromotionStats:
    """Aggregated transformation counts for one function."""

    FIELDS = (
        "webs_seen",
        "webs_promoted",
        "webs_skipped",
        "loads_replaced",
        "loads_inserted",
        "stores_inserted",
        "tail_stores_inserted",
        "stores_deleted",
        "dummies_inserted",
        "reg_phis_created",
    )

    def __init__(self) -> None:
        for field in self.FIELDS:
            setattr(self, field, 0)

    def absorb(self, counts: Dict[str, int]) -> None:
        for key, value in counts.items():
            setattr(self, key, getattr(self, key) + value)

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}

    def __repr__(self) -> str:  # pragma: no cover
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"FunctionPromotionStats({parts})"


def promote_function(
    function: Function,
    mssa: MemorySSA,
    profile: ProfileData,
    interval_tree: IntervalTree,
    options: Optional[PromotionOptions] = None,
) -> FunctionPromotionStats:
    """Run register promotion over one function (already in memory SSA,
    with a normalized CFG).  The CFG is never modified — only
    instructions are inserted and deleted — so the interval tree and the
    dominator tree it carries stay valid throughout."""
    options = options or PromotionOptions()
    domtree = interval_tree.domtree
    stats = FunctionPromotionStats()
    # The ambient decision journal (a null object when disabled) sees one
    # call per web, never per access — the disabled path stays cheap.
    journal = decision_journal.ambient().function(function)

    for interval in interval_tree.bottom_up():
        if interval.is_root and not options.promote_root:
            continue
        webs = construct_ssa_webs(function, interval)
        if not options.per_web:
            webs = _merge_webs_per_variable(function, interval, webs)
        update = _IntervalUpdate(function, domtree, interval, stats)
        for web in webs:
            # A pressure measurement reads the whole function.
            if options.pressure_limit is not None or update.pending(web.var):
                update.flush()
            pressure = _measure_pressure(function, options)
            if pressure is not None and pressure >= options.pressure_limit:
                stats.webs_seen += 1
                stats.webs_skipped += 1
                journal.web_blocked_pressure(
                    web, interval, pressure, options.pressure_limit
                )
                _insert_dummy(
                    function, web, _preheader_block(interval), stats,
                    interval, journal,
                )
                continue
            try:
                _promote_in_web(
                    function, mssa, web, interval, profile, domtree, options,
                    stats, update, journal,
                )
            except PromotionError:
                raise
            except Exception as exc:
                raise _promotion_error(function, interval, web.var.name, exc) from exc
        update.flush()
    journal.finish()
    return stats


def _promotion_error(
    function: Function, interval: Interval, var: str, exc: Exception
) -> PromotionError:
    where = "<root>" if interval.is_root else interval.header.name
    return PromotionError(
        f"promotion of @{var} in interval {where} of {function.name} failed: {exc}",
        function=function.name,
        interval=where,
        var=var,
    )


class _IntervalUpdate:
    """The incremental SSA update (§4.5, Fig. 11) one interval's webs share.

    Each promoted web adds its cloned stores as it is promoted, which
    places their memory phis then; one walk renames and prunes them all
    when the update is flushed: at the end of the interval, before a
    pressure measurement, and before a web of a variable already added.
    Two webs of one variable can share the live-on-entry name, so the
    second web's triage would read names the first one's renaming
    rewrites; webs of different variables never read each other's names.
    The result is the IR one update per web gives.
    """

    def __init__(
        self,
        function: Function,
        domtree: DominatorTree,
        interval: Interval,
        stats: FunctionPromotionStats,
    ) -> None:
        self.function = function
        self.ssa = ClonedResourceUpdate(function, domtree)
        self.interval = interval
        self.stats = stats
        #: Names of the variables added since the last flush.
        self.vars: List[str] = []
        #: (dummy, its uses) for each dummy whose use waits for the flush.
        self.held: List[Tuple[I.Instruction, List[MemName]]] = []

    def pending(self, var: MemoryVar) -> bool:
        return self.ssa.pending(var)

    def add(self, promo: WebPromotion) -> bool:
        """Add the web's cloned stores; False when there were none.

        The old set is exactly the web's names (plus the live-on-entry
        name): single-threaded memory guarantees a clone can only
        supersede uses of names from its own web, and keeping sibling
        webs out of the old set keeps their references alive for their
        own promotion later in this interval.
        """
        if not promo.add_ssa_update(self.ssa, list(promo.web.names)):
            return False
        self.vars.append(promo.web.var.name)
        return True

    def hold(self, dummy: I.Instruction) -> None:
        """Fig. 4 places a web's dummy after the web's own update, so that
        update must neither rename the dummy's use nor count it as one:
        the use is detached until the flush."""
        self.held.append((dummy, dummy.mem_uses))
        dummy.mem_uses = []

    def flush(self) -> None:
        if not self.vars:
            return
        try:
            done = self.ssa.run()
        except Exception as exc:
            raise _promotion_error(
                self.function, self.interval, ",".join(self.vars), exc
            ) from exc
        self.stats.stores_deleted += done.defs_deleted - done.phis_deleted
        for dummy, uses in self.held:
            dummy.mem_uses = uses
        self.vars, self.held = [], []


def _measure_pressure(
    function: Function, options: PromotionOptions
) -> Optional[int]:
    """Pressure-aware gating: the current chromatic requirement, or None
    when no limit is configured (the measurement is not free)."""
    if options.pressure_limit is None:
        return None
    from repro.regalloc.coloring import colors_needed
    from repro.regalloc.interference import build_interference_graph

    return colors_needed(build_interference_graph(function))


def _promote_in_web(
    function: Function,
    mssa: MemorySSA,
    web: Web,
    interval: Interval,
    profile: ProfileData,
    domtree: DominatorTree,
    options: PromotionOptions,
    stats: FunctionPromotionStats,
    update: _IntervalUpdate,
    journal=decision_journal.NULL_FUNCTION_DECISIONS,
) -> None:
    """Fig. 4's ``promoteInWeb``; the SSA update joins ``update``."""
    stats.webs_seen += 1
    preheader = _preheader_block(interval)
    entry_name = mssa.entry_names.get(web.var) or _entry_name_for(mssa, web)

    if not web.has_defs:
        # The entry load's cost is paid where it is inserted: the
        # preheader for a loop, the entry block for the root region.
        cost_block = preheader if not interval.is_root else function.entry
        plan = plan_no_defs_web(web, profile, cost_block)
        promoted = (plan.worthwhile or not options.require_profit) and bool(
            web.load_refs
        )
        if promoted:
            journal.web_promoted_no_defs(web, interval, plan)
            _promote_no_defs_web(function, web, interval, stats, journal)
        else:
            journal.web_skipped(web, interval, plan)
        need_dummy = (
            web.aliased_load_refs
            if promoted
            else (web.load_refs or web.aliased_load_refs)
        )
        if need_dummy:
            _insert_dummy(function, web, preheader, stats, interval, journal)
        if promoted:
            stats.webs_promoted += 1
        else:
            stats.webs_skipped += 1
        return

    plan = plan_web(web, profile, domtree, count_tail_stores=options.count_tail_stores)
    if not options.remove_stores:
        plan.remove_stores = False
    if not options.require_profit:
        plan.remove_stores = bool(web.store_refs) and options.remove_stores
    worthwhile = plan.worthwhile or (
        not options.require_profit
        and (plan.replaceable_loads or (plan.remove_stores and web.store_refs))
    )
    if not worthwhile:
        stats.webs_skipped += 1
        journal.web_skipped(web, interval, plan)
        if web.load_refs or web.store_refs or web.aliased_load_refs:
            _insert_dummy(function, web, preheader, stats, interval, journal)
        return
    journal.web_promoted(web, interval, plan)

    promo = WebPromotion(
        function, plan, domtree, entry_name, journal=journal, interval=interval
    )
    promo.init_vr_map()
    promo.insert_loads_at_phi_leaves()
    promo.replace_loads_by_copies()
    added = False
    if plan.remove_stores:
        promo.insert_stores_for_aliased_loads()
        promo.insert_stores_at_interval_tails()
        added = update.add(promo)
    if web.aliased_load_refs or (web.store_refs and not plan.remove_stores):
        dummy = promo.insert_dummy_aliased_load(preheader)
        if added and dummy is not None:
            update.hold(dummy)
    stats.webs_promoted += 1
    stats.absorb(promo.stats)


def _promote_no_defs_web(
    function: Function,
    web: Web,
    interval: Interval,
    stats: FunctionPromotionStats,
    journal=decision_journal.NULL_FUNCTION_DECISIONS,
) -> None:
    """No definitions in the interval: one load in the preheader replaces
    every load of the web."""
    live_in = web.live_in
    assert live_in is not None, "no-defs web must be fed from outside"
    target = function.new_reg("pr")
    load = I.Load(target, live_in.var)
    load.mem_uses = [live_in]
    block, anchor = _insertion_point(function, interval)
    if anchor is None:
        block.insert_at_front(load)
    else:
        block.insert_before(load, anchor)
    journal.inserted(load, "load", web, interval, "hoisted-entry-load")
    stats.loads_inserted += 1
    for old in web.load_refs:
        assert old.mem_uses[0] is live_in
        copy = I.Copy(old.dst, target)
        old.block.insert_before(copy, old)
        old.remove_from_block()
        stats.loads_replaced += 1


def _insert_dummy(
    function: Function,
    web: Web,
    preheader: Optional[BasicBlock],
    stats: FunctionPromotionStats,
    interval: Optional[Interval] = None,
    journal=decision_journal.NULL_FUNCTION_DECISIONS,
) -> None:
    if preheader is None or web.live_in is None:
        return
    dummy = I.DummyAliasedLoad(web.live_in)
    term = preheader.terminator
    assert term is not None
    preheader.insert_before(dummy, term)
    if interval is not None:
        journal.inserted(dummy, "dummy", web, interval, "dummy-aliased-load")
    stats.dummies_inserted += 1


def _preheader_block(interval: Interval) -> Optional[BasicBlock]:
    """The block whose end summarizes "just before the interval" — None
    for the root region (it has no enclosing interval)."""
    if interval.is_root:
        return None
    assert interval.preheader is not None, (
        f"interval at {interval.header.name} lacks a preheader; run "
        "normalize_for_promotion first"
    )
    return interval.preheader


def _insertion_point(function: Function, interval: Interval):
    """(block, anchor) for the interval's entry load: before the
    preheader's terminator, or the top of the entry block for the root."""
    if interval.is_root:
        entry = function.entry
        idx = entry.first_non_phi_index()
        anchor = entry.instructions[idx] if idx < len(entry.instructions) else None
        return entry, anchor
    pre = interval.preheader
    assert pre is not None
    return pre, pre.terminator


def _entry_name_for(mssa: MemorySSA, web: Web):
    """Fallback entry name when the variable was not tracked at memory
    SSA construction time (hand-annotated tests)."""
    name = MemName(web.var, 0, None)
    mssa.entry_names[web.var] = name
    return name


def _merge_webs_per_variable(
    function: Function, interval: Interval, webs: List[Web]
) -> List[Web]:
    """Whole-variable granularity (the ablation arm): merge all webs of
    one variable in the interval into a single web."""
    by_var: Dict[int, Web] = {}
    order: List[Web] = []
    for web in webs:
        existing = by_var.get(id(web.var))
        if existing is None:
            by_var[id(web.var)] = web
            order.append(web)
            continue
        existing.names += web.names
        existing.load_refs += web.load_refs
        existing.store_refs += web.store_refs
        existing.aliased_load_refs += web.aliased_load_refs
        existing.aliased_store_refs += web.aliased_store_refs
        existing.phis += web.phis
        existing.defs_in_interval += web.defs_in_interval
        if existing.live_in is None:
            existing.live_in = web.live_in
    return order
