"""Profitability analysis (§4.3).

``loads_added`` and ``stores_added`` are derived from the phi structure
of the web:

* a load of leaf ``x`` is placed at the end of block ``L`` for every phi
  operand ``x:L`` whose ``x`` is not defined by a store of the web — this
  is the reload after an aliased store, or the initial load on entry;
* a store of ``x`` is placed (a) at the end of ``L`` for every phi
  operand ``x:L`` where ``x`` is a store of the web and an aliased load
  *depends on* the phi (transitively through phis), and (b) immediately
  before every aliased load that uses a store of the web directly;
  dominated duplicates are pruned.

The profit is the profile-weighted difference between what promotion
deletes (loads defined by a phi or store of the web; all stores of the
web) and what it inserts.  Store removal is assessed separately: "Based
on the cost of removing stores, we can decide not to remove stores", in
which case the variable lives in memory and a register simultaneously.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.analysis.dominance import DominatorTree
from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.memory.resources import MemName
from repro.profile.profiles import ProfileData
from repro.promotion.webs import Web

#: A planned insertion: (name, instruction to insert before).
Placement = Tuple[MemName, I.Instruction]


class WebPlan:
    """Everything decided about one web before transformation."""

    def __init__(self, web: Web) -> None:
        self.web = web
        self.loads_added: List[Placement] = []
        self.stores_added: List[Placement] = []
        #: Loads whose resource is defined by a phi or store of the web —
        #: the ones promotion replaces with copies.
        self.replaceable_loads: List[I.Load] = []
        self.profit_loads = 0
        self.profit_stores = 0
        self.remove_stores = False

    @property
    def profit(self) -> int:
        return self.profit_loads + (self.profit_stores if self.remove_stores else 0)

    @property
    def worthwhile(self) -> bool:
        """Promote only when something is actually removed and the
        profile-weighted profit is non-negative."""
        if not self.replaceable_loads and not (
            self.remove_stores and self.web.store_refs
        ):
            return False
        return self.profit >= 0

    def rationale(self) -> dict:
        """The §4.3 numbers behind this plan, as the decision journal
        records them: the two profit halves, the compensation volume,
        and the store-removal verdict they imply."""
        return {
            "profit_loads": self.profit_loads,
            "profit_stores": self.profit_stores,
            "profit": self.profit,
            "loads_added": len(self.loads_added),
            "stores_added": len(self.stores_added),
            "replaceable_loads": len(self.replaceable_loads),
            "remove_stores": self.remove_stores,
            "worthwhile": self.worthwhile,
        }


def plan_web(
    web: Web,
    profile: ProfileData,
    domtree: DominatorTree,
    count_tail_stores: bool = False,
) -> WebPlan:
    """Compute the paper's loads-added / stores-added sets and profit.

    ``count_tail_stores`` enables a refinement over the paper (and the
    pipeline's default): the stores inserted at the interval tails are
    charged to the store profit as well.  The paper's formula omits
    them, which (a) makes the ``>= 0`` tie rule non-idempotent — a
    zero-profit web re-promoted later accretes tail stores each time
    (measured in ``tests/e2e/test_idempotence.py``) — and (b) approves
    webs whose claimed store removal is illusory because the store is
    re-materialized at the tails, net-adding the compensating entry
    load (hypothesis seed 261 in
    ``tests/property/test_promotion_semantics.py``).
    """
    plan = WebPlan(web)
    defined_by_store = {id(s.mem_defs[0]) for s in web.store_refs}
    defined_by_phi = {id(p.dst_name) for p in web.phis}

    # loads_added: phi-operand leaves not defined by a store of the web.
    seen_loads: Set[Tuple[int, int]] = set()
    for phi in web.phis:
        for pred, name in phi.incoming:
            if id(name) in defined_by_store or id(name) in defined_by_phi:
                continue
            anchor = pred.terminator
            assert anchor is not None
            key = (id(name), id(anchor))
            if key not in seen_loads:
                seen_loads.add(key)
                plan.loads_added.append((name, anchor))

    # stores_added, part (a): walk each aliased load's used name backward
    # through the web's phis collecting contributing store operands.
    store_sites: List[Placement] = []
    seen_sites: Set[Tuple[int, int]] = set()

    def add_site(name: MemName, anchor: I.Instruction) -> None:
        key = (id(name), id(anchor))
        if key not in seen_sites:
            seen_sites.add(key)
            store_sites.append((name, anchor))

    def collect_from_phi(phi: I.MemPhi, visited: Set[int]) -> None:
        if id(phi) in visited:
            return
        visited.add(id(phi))
        for pred, name in phi.incoming:
            if id(name) in defined_by_store:
                anchor = pred.terminator
                assert anchor is not None
                add_site(name, anchor)
            elif id(name) in defined_by_phi:
                collect_from_phi(name.def_inst, visited)  # type: ignore[arg-type]

    for inst, name in web.aliased_load_refs:
        if id(name) in defined_by_store:
            # Part (b): the aliased load uses a store of the web directly.
            add_site(name, inst)
        elif id(name) in defined_by_phi:
            collect_from_phi(name.def_inst, set())  # type: ignore[arg-type]
        # Names defined outside the interval or by an aliased store need
        # no flush: memory already holds them.

    plan.stores_added = _prune_dominated(store_sites, domtree)

    # Replaceable loads: resource defined by a store or phi of the web.
    for load in web.load_refs:
        name = load.mem_uses[0]
        if id(name) in defined_by_store or id(name) in defined_by_phi:
            plan.replaceable_loads.append(load)

    # Profit (§4.3), split into the load part and the store part.
    plan.profit_loads = sum(profile.freq_of(ld) for ld in plan.replaceable_loads) - sum(
        profile.freq_of(anchor) for _, anchor in plan.loads_added
    )
    plan.profit_stores = sum(profile.freq_of(st) for st in web.store_refs) - sum(
        profile.freq_of(anchor) for _, anchor in plan.stores_added
    )
    if count_tail_stores:
        plan.profit_stores -= _tail_store_cost(
            web, profile, domtree, defined_by_store, defined_by_phi
        )
    plan.remove_stores = bool(web.store_refs) and plan.profit_stores >= 0
    return plan


def _tail_store_cost(
    web: Web,
    profile: ProfileData,
    domtree: DominatorTree,
    defined_by_store: Set[int],
    defined_by_phi: Set[int],
) -> int:
    """Profile weight of the stores ``insert_stores_at_interval_tails``
    would place (the refinement's extra charge)."""
    from repro.promotion.webpromote import reaching_web_name

    cost = 0
    for src, tail in web.interval.exits:
        live_out = reaching_web_name(web, domtree, src)
        if live_out is None:
            continue
        if id(live_out) in defined_by_store or id(live_out) in defined_by_phi:
            cost += profile.freq(tail)
    return cost


def plan_no_defs_web(
    web: Web, profile: ProfileData, preheader: Optional[BasicBlock]
) -> WebPlan:
    """The degenerate plan for a web with no definitions in the interval:
    one load in the preheader replaces every load of the web."""
    plan = WebPlan(web)
    plan.replaceable_loads = list(web.load_refs)
    preheader_cost = profile.freq(preheader) if preheader is not None else 1
    plan.profit_loads = (
        sum(profile.freq_of(ld) for ld in web.load_refs) - preheader_cost
    )
    return plan


def _prune_dominated(sites: List[Placement], domtree: DominatorTree) -> List[Placement]:
    """Drop (x, j) when some (x, i) with ``i`` dominating ``j`` exists."""
    result: List[Placement] = []
    for name, anchor in sites:
        block = anchor.block
        assert block is not None
        dominated = False
        for other_name, other_anchor in sites:
            if other_anchor is anchor or other_name is not name:
                continue
            other_block = other_anchor.block
            assert other_block is not None
            if other_block is block:
                # Same block: the earlier instruction dominates the later.
                body = block.instructions
                if body.index(other_anchor) < body.index(anchor):
                    dominated = True
                    break
            elif domtree.strictly_dominates(other_block, block):
                dominated = True
                break
        if not dominated:
            result.append((name, anchor))
    return result
