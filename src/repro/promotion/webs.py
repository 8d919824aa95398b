"""Memory SSA webs — the unit of promotion within an interval (§4.2).

A web is an equivalence class of SSA names of one variable, connected by
the memory phi instructions *in the current interval* (Fig. 3's
union-find construction).  A variable whose SSA names are separated by
calls or pointer stores splits into several webs, "each of which is
considered individually for promotion — thus the call to bar() need not
be considered when promoting x1".

Alongside the class itself we compute the paper's per-web sets:
``loadReferences``, ``storeReferences``, ``aliasedLoadReferences``,
``aliasedStoreReferences``, the names defined in the interval, the
live-in resource, and the interval phis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.intervals import Interval
from repro.ir import instructions as I
from repro.ir.function import Function
from repro.memory.resources import MemName, MemoryVar
from repro.ssa.unionfind import UnionFind


class Web:
    """One memory SSA web and its reference sets within an interval."""

    def __init__(self, var: MemoryVar, interval: Interval) -> None:
        self.var = var
        self.interval = interval
        #: webResources — every name in the equivalence class.
        self.names: List[MemName] = []
        #: Singleton loads in the interval reading a web name.
        self.load_refs: List[I.Load] = []
        #: Singleton stores in the interval defining a web name.
        self.store_refs: List[I.Store] = []
        #: (instruction, name) pairs: aliased uses of web names (calls,
        #: pointer references, dummy loads, returns).
        self.aliased_load_refs: List[Tuple[I.Instruction, MemName]] = []
        #: (instruction, name) pairs: aliased definitions of web names.
        self.aliased_store_refs: List[Tuple[I.Instruction, MemName]] = []
        #: Memory phis of this web located in the interval.
        self.phis: List[I.MemPhi] = []
        #: Names defined by an instruction inside the interval (stores,
        #: aliased stores, and phis).
        self.defs_in_interval: List[MemName] = []
        #: The unique name defined in an ancestor scope but used here
        #: (None when every name is defined inside the interval).
        self.live_in: Optional[MemName] = None

    @property
    def has_defs(self) -> bool:
        return bool(self.defs_in_interval)

    def contains(self, name: MemName) -> bool:
        return any(n is name for n in self.names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Web({self.var.name}, {len(self.names)} names, "
            f"{len(self.load_refs)}ld/{len(self.store_refs)}st, "
            f"{len(self.aliased_load_refs)}ald/{len(self.aliased_store_refs)}ast)"
        )


def construct_ssa_webs(function: Function, interval: Interval) -> List[Web]:
    """Build the webs of every promotable variable in ``interval``.

    Implements Figure 3: every name referenced in the interval starts as
    a singleton; each memory phi in the interval unions its target with
    its operands.  The transitive closure partitions the names into webs.
    Webs are returned sorted by variable name then by first name version,
    for determinism.
    """
    uf: UnionFind[MemName] = UnionFind()

    def track(name: MemName) -> bool:
        return name.var.promotable

    for block in interval.blocks:
        for inst in block.instructions:
            if isinstance(inst, I.MemPhi):
                if not track(inst.dst_name):
                    continue
                uf.add(inst.dst_name)
                for _, operand in inst.incoming:
                    uf.union(inst.dst_name, operand)
            else:
                for name in inst.mem_uses:
                    if track(name):
                        uf.add(name)
                for name in inst.mem_defs:
                    if track(name):
                        uf.add(name)

    webs: List[Web] = []
    owner: Dict[int, Web] = {}
    for group in uf.groups():
        web = Web(group[0].var, interval)
        web.names = group
        for name in group:
            owner[id(name)] = web
        webs.append(web)
    # The webs are built before any of them is promoted, so one scan
    # fills every web's reference lists in the order a scan per web would.
    _collect_references(interval, owner)
    for web in webs:
        _set_live_in(web)
    webs.sort(key=lambda w: (w.var.name, min(n.version for n in w.names)))
    return webs


def _collect_references(interval: Interval, owner: Dict[int, Web]) -> None:
    """Scan the interval once, filling each web's reference sets;
    ``owner`` maps each web name (by identity) to its web."""
    for block in interval.blocks:
        for inst in block.instructions:
            if isinstance(inst, I.MemPhi):
                web = owner.get(id(inst.dst_name))
                if web is not None:
                    web.phis.append(inst)
                    web.defs_in_interval.append(inst.dst_name)
                continue
            if isinstance(inst, I.Load):
                if inst.mem_uses:
                    web = owner.get(id(inst.mem_uses[0]))
                    if web is not None:
                        web.load_refs.append(inst)
                continue
            if isinstance(inst, I.Store):
                if inst.mem_defs:
                    web = owner.get(id(inst.mem_defs[0]))
                    if web is not None:
                        web.store_refs.append(inst)
                        web.defs_in_interval.append(inst.mem_defs[0])
                continue
            if inst.is_aliased_mem_op:
                for name in inst.mem_uses:
                    web = owner.get(id(name))
                    if web is not None:
                        web.aliased_load_refs.append((inst, name))
                for name in inst.mem_defs:
                    web = owner.get(id(name))
                    if web is not None:
                        web.aliased_store_refs.append((inst, name))
                        web.defs_in_interval.append(name)


def _set_live_in(web: Web) -> None:
    defined_inside = {id(n) for n in web.defs_in_interval}
    outside = [n for n in web.names if id(n) not in defined_inside]
    # Single-threaded memory: at most one live-in resource per web for a
    # proper interval.  Improper intervals can expose several
    # outside-defined names (one per entry path); the first in version
    # order is the representative used for dummy loads.
    outside.sort(key=lambda n: n.version)
    web.live_in = outside[0] if outside else None
