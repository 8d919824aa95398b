"""Web promotion — the transformation half of §4.4 (Figures 4-6).

``promote_in_web`` executes a :class:`WebPlan`:

* ``init_vr_map`` places a copy ``t = v`` after every store ``st [x], v``
  of the web and maps ``x -> t`` (Fig. 4's ``initVRMap``);
* ``insert_loads_at_phi_leaves`` realizes the planned leaf loads;
* ``replace_loads_by_copies`` (Fig. 5) turns every load of a
  store/phi-defined name into a copy of its materialized value;
* ``materialize_store_value`` (Fig. 6) mirrors the memory phi structure
  with register phis, using a placeholder-first strategy so cyclic phi
  webs terminate;
* when stores are removed, ``insert_stores_for_aliased_loads`` and
  ``insert_stores_at_interval_tails`` place the compensating stores,
  after which a batched incremental SSA update
  (:class:`repro.ssa.incremental.ClonedResourceUpdate`, shared by the
  interval's webs) renames downstream uses and deletes the dead original
  stores and phis — the paper's ``deleteStores`` falls out of the
  update's step 4;
* finally a dummy aliased load summarizing the web's memory expectation
  is placed in the interval preheader for the enclosing interval.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.dominance import DominatorTree
from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.values import VReg
from repro.memory.resources import MemName
from repro.ssa.incremental import ClonedResourceUpdate
from repro.observability import decisions as decision_journal
from repro.promotion.profitability import WebPlan


class WebPromotion:
    """Mutable state for promoting one web."""

    def __init__(
        self,
        function: Function,
        plan: WebPlan,
        domtree: DominatorTree,
        entry_name: MemName,
        journal=decision_journal.NULL_FUNCTION_DECISIONS,
        interval=None,
    ) -> None:
        self.function = function
        self.plan = plan
        self.web = plan.web
        self.domtree = domtree
        self.entry_name = entry_name
        #: Decision journal for compensating insertions (null when off).
        self.journal = journal
        self.interval = interval if interval is not None else plan.web.interval
        #: vrMap: memory name -> virtual register holding its value.
        self.vr_map: Dict[int, VReg] = {}
        #: (leaf name id, block id) -> register of the inserted leaf load.
        self.leaf_loads: Dict[Tuple[int, int], VReg] = {}
        #: Names of the cloned store definitions, for the SSA update.
        self.cloned: List[MemName] = []
        self.stats: Dict[str, int] = {
            "loads_replaced": 0,
            "loads_inserted": 0,
            "stores_inserted": 0,
            "tail_stores_inserted": 0,
            "stores_deleted": 0,
            "dummies_inserted": 0,
            "reg_phis_created": 0,
        }

    # -- Fig. 4 steps ------------------------------------------------------

    def init_vr_map(self) -> None:
        """Copy each stored value into a register mapped to the store's
        name: ``st [x], v`` gains ``t = copy v`` right after it."""
        for store in self.web.store_refs:
            t = self.function.new_reg("vr")
            copy = I.Copy(t, store.value)
            store.block.insert_after(copy, store)
            self.vr_map[id(store.mem_defs[0])] = t

    def insert_loads_at_phi_leaves(self) -> None:
        """Insert ``t = ld [x]`` before each planned anchor."""
        for name, anchor in self.plan.loads_added:
            block = anchor.block
            assert block is not None
            t = self.function.new_reg("rl")
            load = I.Load(t, name.var)
            load.mem_uses = [name]
            block.insert_before(load, anchor)
            self.leaf_loads[(id(name), id(block))] = t
            self.vr_map.setdefault(id(name), t)
            self.journal.inserted(
                load, "load", self.web, self.interval, "phi-leaf-load"
            )
            self.stats["loads_inserted"] += 1

    def replace_loads_by_copies(self) -> None:
        """Fig. 5: every load of a store/phi-defined name becomes a copy."""
        for load in self.plan.replaceable_loads:
            value = self.materialize_store_value(load.mem_uses[0])
            block = load.block
            assert block is not None
            copy = I.Copy(load.dst, value)
            block.insert_before(copy, load)
            load.remove_from_block()
            self.stats["loads_replaced"] += 1

    def materialize_store_value(self, name: MemName) -> VReg:
        """Fig. 6: the register holding ``name``'s value.

        Assumes every needed leaf load and store copy is already in
        place.  For a phi-defined name a register phi mirroring the
        memory phi is created; the placeholder is registered in vrMap
        *before* operands are materialized so that cyclic phi webs (loop
        headers and latches referencing each other) terminate.
        """
        if id(name) in self.vr_map:
            return self.vr_map[id(name)]
        phi_inst = name.def_inst
        if not isinstance(phi_inst, I.MemPhi):
            raise AssertionError(
                f"materialize of {name}: not in vrMap and not phi-defined"
            )
        block = phi_inst.block
        assert block is not None
        target = self.function.new_reg("vp")
        reg_phi = I.Phi(target, [])
        block.insert_at_front(reg_phi)
        self.vr_map[id(name)] = target
        self.stats["reg_phis_created"] += 1

        defined_by_store = {id(s.mem_defs[0]) for s in self.web.store_refs}
        defined_by_phi = {id(p.dst_name) for p in self.web.phis}
        for pred, operand in phi_inst.incoming:
            if id(operand) in defined_by_phi or id(operand) in defined_by_store:
                value: VReg = self.materialize_store_value(operand)
            else:
                leaf = self.leaf_loads.get((id(operand), id(pred)))
                if leaf is None:
                    # The leaf load may sit in a different block that
                    # dominates this pred (shared by several phis); fall
                    # back to any register already holding the name.
                    fallback = self.vr_map.get(id(operand))
                    if fallback is None:
                        raise AssertionError(
                            f"no materialized value for leaf {operand} from "
                            f"{pred.name}"
                        )
                    value = fallback
                else:
                    value = leaf
            reg_phi.set_incoming(pred, value)
        return target

    def insert_stores_for_aliased_loads(self) -> None:
        """Place ``st [x], vrMap[x]`` before each planned anchor."""
        for name, anchor in self.plan.stores_added:
            block = anchor.block
            assert block is not None
            store = I.Store(name.var, self.vr_map[id(name)])
            new_name = self.function.new_mem_name(name.var, store)
            store.mem_defs = [new_name]
            block.insert_before(store, anchor)
            self.cloned.append(new_name)
            self.journal.inserted(
                store, "store", self.web, self.interval, "aliased-load-flush-store"
            )
            self.stats["stores_inserted"] += 1

    def insert_stores_at_interval_tails(self) -> None:
        """Store the live-out value in the tail of each exit edge whose
        reaching definition is a store or phi of the web."""
        defined_by_store = {id(s.mem_defs[0]) for s in self.web.store_refs}
        defined_by_phi = {id(p.dst_name) for p in self.web.phis}
        for src, tail in self.web.interval.exits:
            live_out = self._reaching_web_name(src)
            if live_out is None:
                continue
            if (
                id(live_out) not in defined_by_store
                and id(live_out) not in defined_by_phi
            ):
                continue  # live-in or aliased-store-defined: memory is current
            value = self.materialize_store_value(live_out)
            store = I.Store(live_out.var, value)
            new_name = self.function.new_mem_name(live_out.var, store)
            store.mem_defs = [new_name]
            tail.insert_at_front(store)
            self.cloned.append(new_name)
            self.journal.inserted(
                store, "store", self.web, self.interval, "interval-tail-store"
            )
            self.stats["tail_stores_inserted"] += 1

    def add_ssa_update(
        self, update: ClonedResourceUpdate, all_names: List[MemName]
    ) -> bool:
        """Add the cloned stores to ``update`` (its phi placement runs
        now; see :class:`~repro.ssa.incremental.ClonedResourceUpdate`),
        with ``all_names`` plus the live-on-entry name as the old names.
        False when nothing was cloned."""
        if not self.cloned:
            return False
        old = list(all_names)
        if not any(n is self.entry_name for n in old):
            old.append(self.entry_name)
        update.add(old, self.cloned)
        return True

    def run_ssa_update(self, all_names: List[MemName]) -> None:
        """Incremental update for this web's cloned stores alone; its
        dead-code step performs the paper's ``deleteStores``."""
        update = ClonedResourceUpdate(self.function, self.domtree)
        if self.add_ssa_update(update, all_names):
            stats = update.run()
            self.stats["stores_deleted"] += stats.defs_deleted - stats.phis_deleted

    def insert_dummy_aliased_load(
        self, preheader: Optional[BasicBlock]
    ) -> Optional[I.DummyAliasedLoad]:
        """Summarize this web's entry expectation for the parent interval;
        returns the dummy, or None when there is no place or no name."""
        if preheader is None or self.web.live_in is None:
            return None
        dummy = I.DummyAliasedLoad(self.web.live_in)
        term = preheader.terminator
        if term is not None:
            preheader.insert_before(dummy, term)
        else:  # pragma: no cover - preheaders always end in a jump
            preheader.append(dummy)
        self.journal.inserted(
            dummy, "dummy", self.web, self.interval, "dummy-aliased-load"
        )
        self.stats["dummies_inserted"] += 1
        return dummy

    # -- helpers ------------------------------------------------------------

    def _reaching_web_name(self, exit_src: BasicBlock) -> Optional[MemName]:
        return reaching_web_name(self.web, self.domtree, exit_src)


def reaching_web_name(
    web, domtree: DominatorTree, exit_src: BasicBlock
) -> Optional[MemName]:
    """The web name live at the end of ``exit_src``, or None.

    The dominator walk must consider *every* definition of the variable —
    not just this web's names — because a definition from another web (a
    call's may-def, or a store inserted while promoting a sibling web)
    supersedes this web's value on the way to the exit.  Only if the
    variable's reaching definition belongs to this web is it the web's
    live-out resource.
    """
    in_web = {id(n) for n in web.names}
    var = web.var
    block: Optional[BasicBlock] = exit_src
    while block is not None:
        best = None
        best_pos = -1
        for pos, inst in enumerate(block.instructions):
            for name in inst.mem_defs:
                if name.var is var and pos > best_pos:
                    best, best_pos = name, pos
        if best is not None:
            return best if id(best) in in_web else None
        block = domtree.idom.get(block)
    # No definition of the variable dominates the exit: the reaching
    # value is the interval's live-in, current in memory already.
    return None
