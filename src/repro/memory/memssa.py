"""Memory SSA construction.

Puts singleton memory resources in SSA form, "in order to treat them
uniformly with register resources" (Section 3): every tracked scalar
variable gets versioned names, explicit memory phi instructions are placed
at the iterated dominance frontier of its definition blocks, and every
memory-touching instruction is annotated with the SSA names it uses and
defines (via :class:`repro.memory.aliasing.AliasModel`).

Construction is the standard Cytron algorithm (phi placement on the IDF,
then a renaming walk over the dominator tree), run for all tracked
variables in one pass.  Rebuilding is idempotent: existing annotations and
memory phis are discarded first.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.dominance import DominatorTree
from repro.analysis.idf import iterated_dominance_frontier
from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.memory.aliasing import AliasModel
from repro.memory.resources import MemName, MemoryVar


class MemorySSA:
    """The result of memory-SSA construction for one function."""

    def __init__(self, function: Function, alias_model: AliasModel) -> None:
        self.function = function
        self.alias_model = alias_model
        #: Tracked scalar variables, sorted by name.
        self.tracked: List[MemoryVar] = []
        #: The live-on-entry (version 0) name of each tracked variable.
        self.entry_names: Dict[MemoryVar, MemName] = {}


def build_memory_ssa(
    function: Function,
    alias_model: AliasModel,
    domtree: Optional[DominatorTree] = None,
) -> MemorySSA:
    """(Re)build memory SSA for ``function``; returns a :class:`MemorySSA`."""
    _clear(function)
    result = MemorySSA(function, alias_model)
    result.tracked = alias_model.tracked_vars(function)
    if not result.tracked:
        return result
    domtree = domtree or DominatorTree.compute(function)

    # Per-instruction effect sets (computed once; renaming reuses them).
    may_use: Dict[int, List[MemoryVar]] = {}
    may_def: Dict[int, List[MemoryVar]] = {}
    tracked_ids = {id(v) for v in result.tracked}
    for inst in function.instructions():
        may_use[id(inst)] = [
            v for v in alias_model.may_use_vars(function, inst) if id(v) in tracked_ids
        ]
        may_def[id(inst)] = [
            v for v in alias_model.may_def_vars(function, inst) if id(v) in tracked_ids
        ]

    # Each variable's definition blocks, bucketed in one sweep.
    def_blocks: Dict[int, List[BasicBlock]] = {id(v): [] for v in result.tracked}
    for block in domtree.reachable:
        for inst in block.instructions:
            for var in may_def[id(inst)]:
                blocks = def_blocks[id(var)]
                if not blocks or blocks[-1] is not block:
                    blocks.append(block)

    # Phi placement: IDF of each variable's definition blocks.
    phi_vars: Dict[int, List[MemoryVar]] = {id(b): [] for b in domtree.reachable}
    for var in result.tracked:
        for block in iterated_dominance_frontier(domtree, def_blocks[id(var)]):
            phi_vars[id(block)].append(var)

    for block in domtree.reachable:
        for var in phi_vars[id(block)]:
            name = function.new_mem_name(var)
            phi = I.MemPhi(var, name, [])
            block.insert_at_front(phi)

    # Renaming walk over the dominator tree.
    stacks: Dict[int, List[MemName]] = {}
    for var in result.tracked:
        entry_name = MemName(var, 0, None)
        result.entry_names[var] = entry_name
        stacks[id(var)] = [entry_name]

    def current(var: MemoryVar) -> MemName:
        return stacks[id(var)][-1]

    # Iterative pre/post-order walk (explicit stack to avoid recursion
    # limits on deep dominator trees).
    work: List = [("visit", function.entry)]
    while work:
        action, block = work.pop()
        if action == "leave":
            for inst in reversed(block.instructions):
                for name in inst.mem_defs:
                    stack = stacks[id(name.var)]
                    assert stack[-1] is name
                    stack.pop()
            continue

        pushed: List[MemName] = []
        for inst in block.instructions:
            if isinstance(inst, I.MemPhi):
                # Defined here; incoming names are filled from the preds.
                stacks[id(inst.var)].append(inst.dst_name)
                continue
            uses = may_use[id(inst)]
            if uses:
                inst.mem_uses = [current(v) for v in uses]
            defs = may_def[id(inst)]
            for var in defs:
                name = function.new_mem_name(var, inst)
                inst.mem_defs.append(name)
                stacks[id(var)].append(name)

        for succ in block.succs:
            for phi in succ.mem_phis():
                phi.set_incoming(block, current(phi.var))

        work.append(("leave", block))
        for child in reversed(domtree.children.get(block, [])):
            work.append(("visit", child))

    return result


def _clear(function: Function) -> None:
    """Remove memory phis and all memory-SSA annotations."""
    for block in function.blocks:
        block.instructions = [
            inst for inst in block.instructions if not isinstance(inst, I.MemPhi)
        ]
        for inst in block.instructions:
            inst.mem_uses = []
            inst.mem_defs = []
