"""Incremental SSA update for cloned definitions (Section 4.5, Fig. 11).

Given a set of *existing* SSA names of one memory variable (``old_names``)
and a set of *cloned* names whose defining instructions have just been
inserted (``cloned_names``), re-establish SSA form:

1. collect the definition blocks of all old and cloned names; place a
   memory phi at every block of their iterated dominance frontier (batched
   — one IDF computation for all definitions, which is the efficiency
   claim against [CSS96]'s one-definition-at-a-time updates);
2. rename every use of an old name to its reaching definition, found by
   walking the dominator tree bottom-up (``computeReachingDef``);
3. fill in the sources of the phis that step 2 made live, propagating
   liveness through newly referenced phis;
4. delete every deletable definition whose target has no remaining use —
   dead old stores, dead memory phis (old or just-inserted), and dead
   cloned stores — iterating to a fixed point so that "no dead code is
   caused by the transformation which clones definitions".

Notes beyond the paper's pseudocode:

* An IDF block may already hold a memory phi for the variable (the
  original SSA phis sit on the IDF of the old definitions).  We reuse it:
  its incoming names are use references and get renamed by step 2, which
  is exactly the refill the new phi would have received.
* Only stores and memory phis are deletable; a call or pointer store that
  defines a dead name stays (it has effects beyond this variable) — its
  dead name is simply left without readers.
* The live-on-entry name (version 0) participates as a definition "above"
  the entry block, so renaming is total on every path on which the
  variable is defined at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.dominance import DominatorTree
from repro.analysis.idf import iterated_dominance_frontier
from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.memory.resources import MemName, MemoryVar
from repro.observability.metrics import ambient


def names_of_var(
    function: Function, var: MemoryVar, seed: Sequence[MemName] = ()
) -> List[MemName]:
    """Every name of ``var`` referenced in ``function``, plus any seed
    names (e.g. the live-on-entry name) whose definitions still exist."""
    names: List[MemName] = []
    seen: Set[int] = set()

    def add(name: Optional[MemName]) -> None:
        if name is not None and name.var is var and id(name) not in seen:
            seen.add(id(name))
            names.append(name)

    for name in seed:
        if name.def_inst is not None and name.def_inst.block is None:
            continue  # definition was deleted
        add(name)
    for inst in function.instructions():
        for name in inst.mem_uses:
            add(name)
        for name in inst.mem_defs:
            add(name)
    return names


class UpdateStats:
    """What one incremental update did (used by tests and benchmarks)."""

    def __init__(self) -> None:
        self.phis_placed = 0
        self.phis_reused = 0
        self.uses_renamed = 0
        self.defs_deleted = 0
        self.phis_deleted = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"UpdateStats(placed={self.phis_placed}, reused={self.phis_reused}, "
            f"renamed={self.uses_renamed}, defs_deleted={self.defs_deleted}, "
            f"phis_deleted={self.phis_deleted})"
        )


def update_ssa_for_cloned_resources(
    function: Function,
    old_names: Sequence[MemName],
    cloned_names: Sequence[MemName],
    domtree: Optional[DominatorTree] = None,
) -> UpdateStats:
    """The paper's ``updateSSAForClonedResources`` (Figure 11).

    ``old_names`` must contain every existing name of the variable that
    may reach an affected use (passing *all* names of the variable is
    always safe); ``cloned_names`` are the freshly inserted definitions.
    All names must belong to one variable.  This is a
    :class:`ClonedResourceUpdate` of one variable.
    """
    if not cloned_names:
        return UpdateStats()
    update = ClonedResourceUpdate(function, domtree or DominatorTree.compute(function))
    update.add(old_names, cloned_names)
    return update.run()


class _Variable:
    """One variable's share of a :class:`ClonedResourceUpdate`."""

    __slots__ = ("old_names", "all_defs", "block_defs")

    def __init__(self, old_names: Sequence[MemName], all_defs: List[MemName]) -> None:
        self.old_names = old_names
        #: Old, cloned and newly placed phi names: the reaching-definition
        #: candidates, and the deletion candidates of step 4.
        self.all_defs = all_defs
        #: Per-block ordered (index, name) lists of ``all_defs``.
        self.block_defs: Dict[int, List[Tuple[int, MemName]]] = {}


class ClonedResourceUpdate:
    """One batched update (Figure 11) over the cloned definitions of one
    or more variables.

    :meth:`add` runs step 1, phi placement, for one variable at once;
    :meth:`run` then runs steps 2-4 for every variable added, in one
    walk over the function.  Versions are numbered per variable and the
    variables' names never meet, so the result is the same as one update
    per variable, each run when its variable was added, provided nothing
    between :meth:`add` and :meth:`run` reads or writes the names of a
    variable already added.
    """

    def __init__(self, function: Function, domtree: DominatorTree) -> None:
        self.function = function
        self.domtree = domtree
        self.stats = UpdateStats()
        self._vars: Dict[int, _Variable] = {}
        self._new_phis: Set[int] = set()

    def pending(self, var: MemoryVar) -> bool:
        """True when ``var`` was added and has not been run yet."""
        return id(var) in self._vars

    def add(
        self, old_names: Sequence[MemName], cloned_names: Sequence[MemName]
    ) -> None:
        """Step 1 for one variable, now: place a memory phi on the
        iterated dominance frontier of every old and cloned definition."""
        if not cloned_names:
            return
        var = cloned_names[0].var
        for name in list(old_names) + list(cloned_names):
            if name.var is not var:
                raise ValueError(
                    f"mixed variables in SSA update: {name} is not a name of {var.name}"
                )
        if self.pending(var):
            raise ValueError(f"variable {var.name} is already in this SSA update")
        function = self.function

        init_def_blocks: List[BasicBlock] = []
        seen_blocks: Set[int] = set()
        for name in list(old_names) + list(cloned_names):
            block = _def_block(function, name)
            if id(block) not in seen_blocks:
                seen_blocks.add(id(block))
                init_def_blocks.append(block)

        phi_targets: List[MemName] = []
        for block in iterated_dominance_frontier(self.domtree, init_def_blocks):
            existing = _phi_for_var(block, var)
            if existing is not None:
                self.stats.phis_reused += 1
                continue
            target = function.new_mem_name(var)
            phi = I.MemPhi(var, target, [])
            block.insert_at_front(phi)
            self._new_phis.add(id(phi))
            phi_targets.append(target)
            self.stats.phis_placed += 1

        self._vars[id(var)] = _Variable(
            old_names, list(old_names) + list(cloned_names) + phi_targets
        )

    def run(self) -> UpdateStats:
        """Steps 2-4 for every variable added; returns the whole update's
        stats and leaves this object empty for reuse."""
        stats, variables = self.stats, self._vars
        new_phis = self._new_phis
        self.stats, self._vars, self._new_phis = UpdateStats(), {}, set()
        if not variables:
            return stats
        function, domtree = self.function, self.domtree

        owner: Dict[int, _Variable] = {}
        for variable in variables.values():
            for name in variable.all_defs:
                owner[id(name)] = variable
        for block in function.blocks:
            for pos, inst in enumerate(block.instructions):
                for name in inst.mem_defs:
                    variable = owner.get(id(name))
                    if variable is not None:
                        variable.block_defs.setdefault(id(block), []).append(
                            (pos, name)
                        )

        def reaching_def(
            variable: _Variable, var: MemoryVar, block: BasicBlock, position: int
        ) -> MemName:
            found = _compute_reaching_def(
                domtree, variable.block_defs, variable.old_names, block, position
            )
            if found is None:
                raise ValueError(
                    f"no reaching definition of {var.name} at {block.name}:{position}"
                )
            return found

        # ---- Step 2: rename the uses of old names ------------------------
        old_owner: Dict[int, _Variable] = {}
        for variable in variables.values():
            for name in variable.old_names:
                old_owner[id(name)] = variable
        phi_worklist: List[I.MemPhi] = []
        enqueued: Set[int] = set()

        def note_reaching_phi(name: MemName) -> None:
            inst = name.def_inst
            if inst is not None and id(inst) in new_phis and id(inst) not in enqueued:
                enqueued.add(id(inst))
                phi_worklist.append(inst)  # type: ignore[arg-type]

        for block in function.blocks:
            for index, inst in enumerate(block.instructions):
                if isinstance(inst, I.MemPhi):
                    if id(inst.var) not in variables or id(inst) in new_phis:
                        continue
                    for pred, name in list(inst.incoming):
                        variable = old_owner.get(id(name))
                        if variable is None:
                            continue
                        new_name = reaching_def(
                            variable, name.var, pred, len(pred.instructions)
                        )
                        if new_name is not name:
                            inst.set_incoming(pred, new_name)
                            stats.uses_renamed += 1
                        note_reaching_phi(new_name)
                else:
                    for slot, name in enumerate(inst.mem_uses):
                        variable = old_owner.get(id(name))
                        if variable is None:
                            continue
                        new_name = reaching_def(variable, name.var, block, index)
                        if new_name is not name:
                            inst.mem_uses[slot] = new_name
                            stats.uses_renamed += 1
                        note_reaching_phi(new_name)

        # ---- Step 3: fill live phis, propagating liveness ----------------
        while phi_worklist:
            phi = phi_worklist.pop()
            block = phi.block
            assert block is not None
            variable = variables[id(phi.var)]
            for pred in block.preds:
                # A "virtual use instruction at the end of predBB".
                name = reaching_def(variable, phi.var, pred, len(pred.instructions))
                phi.set_incoming(pred, name)
                note_reaching_phi(name)

        # ---- Step 4: delete dead definitions -----------------------------
        candidates = [n for v in variables.values() for n in v.all_defs]
        stats.defs_deleted, stats.phis_deleted = _delete_dead_defs(function, candidates)

        metrics = ambient()
        metrics.inc("ssa.incremental.updates")
        metrics.inc("ssa.incremental.phis_placed", stats.phis_placed)
        metrics.inc("ssa.incremental.phis_reused", stats.phis_reused)
        metrics.inc("ssa.incremental.uses_renamed", stats.uses_renamed)
        metrics.inc("ssa.incremental.defs_deleted", stats.defs_deleted)
        metrics.inc("ssa.incremental.phis_deleted", stats.phis_deleted)
        return stats


def convert_var_to_ssa(function, var, alias_model) -> MemName:
    """Incrementally convert one memory variable into SSA form.

    The paper's third application of the update (§4.4): "When a compiler
    phase adds a new resource with multiple definitions and uses to the
    code stream, the resource can be converted into SSA form by using the
    incremental update algorithm."

    Every use of ``var`` is seeded with the live-on-entry name and every
    definition gets a fresh name; one batched update then renames the
    uses to their true reaching definitions and places the necessary
    phis.  Returns the entry name.  Any existing annotations for ``var``
    are discarded first.
    """
    # Clear prior annotations of this variable.
    for block in function.blocks:
        for inst in list(block.instructions):
            if isinstance(inst, I.MemPhi) and inst.var is var:
                inst.remove_from_block()
                continue
            inst.mem_uses = [n for n in inst.mem_uses if n.var is not var]
            inst.mem_defs = [n for n in inst.mem_defs if n.var is not var]

    entry = MemName(var, 0, None)
    cloned: List[MemName] = []
    for inst in function.instructions():
        if any(v is var for v in alias_model.may_use_vars(function, inst)):
            inst.mem_uses.append(entry)
        if any(v is var for v in alias_model.may_def_vars(function, inst)):
            name = function.new_mem_name(var, inst)
            inst.mem_defs.append(name)
            cloned.append(name)
    update_ssa_for_cloned_resources(function, [entry], cloned)
    return entry


def _delete_dead_defs(
    function: Function, candidates: Sequence[MemName]
) -> Tuple[int, int]:
    """Delete stores/memphis among ``candidates`` whose names are unused,
    cascading to a fixed point.  Returns (defs deleted, of which phis)."""
    deleted = phis = 0
    remaining = list(candidates)
    while True:
        used: Set[int] = set()
        for inst in function.instructions():
            for name in inst.mem_uses:
                used.add(id(name))
        victims = []
        for name in remaining:
            inst = name.def_inst
            if inst is None or inst.block is None:
                continue
            if id(name) in used:
                continue
            if isinstance(inst, (I.Store, I.MemPhi)):
                victims.append(name)
        if not victims:
            return deleted, phis
        for name in victims:
            inst = name.def_inst
            if isinstance(inst, I.MemPhi):
                phis += 1
            deleted += 1
            inst.remove_from_block()
        remaining = [n for n in remaining if n not in victims]


def _def_block(function: Function, name: MemName) -> BasicBlock:
    if name.def_inst is None:
        return function.entry  # live-on-entry: defined "above" the entry
    block = name.def_inst.block
    if block is None:
        raise ValueError(f"{name} is defined by a detached instruction")
    return block


def _phi_for_var(block: BasicBlock, var: MemoryVar) -> Optional[I.MemPhi]:
    for phi in block.mem_phis():
        if phi.var is var:
            return phi
    return None


def _compute_reaching_def(
    domtree: DominatorTree,
    block_defs: Dict[int, List[Tuple[int, MemName]]],
    old_names: Sequence[MemName],
    block: BasicBlock,
    position: int,
) -> Optional[MemName]:
    """The paper's ``computeReachingDef``: walk the dominator tree
    bottom-up; within a block the latest definition preceding the use
    wins."""
    current: Optional[BasicBlock] = block
    limit = position
    while current is not None:
        best: Optional[Tuple[int, MemName]] = None
        for pos, name in block_defs.get(id(current), ()):
            if pos < limit and (best is None or pos > best[0]):
                best = (pos, name)
        if best is not None:
            return best[1]
        current = domtree.idom.get(current)
        limit = 1 << 60  # whole block once above the use's block
    # Above the entry block: the live-on-entry name, if tracked.
    for name in old_names:
        if name.def_inst is None:
            return name
    return None
