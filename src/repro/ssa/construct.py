"""Classic SSA construction: promote unexposed scalar locals to registers.

The front end lowers *every* variable to memory; this pass (the moral
equivalent of LLVM's ``mem2reg``) rewrites scalar locals whose address is
never taken into pure SSA register form, inserting phis at the iterated
dominance frontier of their stores [CFR+91].  What it deliberately leaves
in memory — globals, address-exposed locals, scalar struct fields — is
exactly the candidate set of the paper's register promotion.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.dominance import DominatorTree
from repro.analysis.idf import iterated_dominance_frontier
from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.values import UNDEF, Value, VReg
from repro.memory.resources import MemoryVar, VarKind


def promotable_locals(function: Function) -> List[MemoryVar]:
    """Scalar, non-address-exposed frame variables, in declaration order."""
    return [
        v
        for v in function.frame_vars.values()
        if v.kind is VarKind.LOCAL and v.is_scalar and not v.address_taken
    ]


def construct_ssa(function: Function, domtree: Optional[DominatorTree] = None) -> int:
    """Run mem2reg on ``function``; returns the number of promoted locals.

    Promoted variables' loads and stores are deleted; their frame slots
    are removed from the function.  Reads of a never-stored variable see
    ``undef`` (the interpreter reads undef as 0, matching the front end's
    zero-initialization of locals).  mem2reg never changes the CFG, so a
    caller that holds the current ``domtree`` may pass it in.
    """
    candidates = promotable_locals(function)
    if not candidates:
        return 0
    candidate_ids = {id(v) for v in candidates}
    domtree = domtree or DominatorTree.compute(function)

    # Each variable's store blocks, bucketed in one sweep.
    def_blocks: Dict[int, List[BasicBlock]] = {id(v): [] for v in candidates}
    for block in domtree.reachable:
        for inst in block.instructions:
            if isinstance(inst, I.Store) and id(inst.var) in candidate_ids:
                blocks = def_blocks[id(inst.var)]
                if not blocks or blocks[-1] is not block:
                    blocks.append(block)

    # Phi placement at the IDF of each variable's store blocks.
    phi_var: Dict[int, MemoryVar] = {}
    for var in candidates:
        for block in iterated_dominance_frontier(domtree, def_blocks[id(var)]):
            phi = I.Phi(function.new_reg(var.name), [])
            block.insert_at_front(phi)
            phi_var[id(phi)] = var

    # Renaming walk: record a replacement for every deleted load's target,
    # fill phi operands from each predecessor's end-of-block environment.
    replacement: Dict[VReg, Value] = {}
    stacks: Dict[int, List[Value]] = {id(v): [UNDEF] for v in candidates}
    to_delete: List[I.Instruction] = []

    work: List = [("visit", function.entry)]
    pushed_counts: Dict[int, Dict[int, int]] = {}
    while work:
        action, block = work.pop()
        if action == "leave":
            for var_id, count in pushed_counts.pop(id(block)).items():
                del stacks[var_id][-count:]
            continue

        pushed: Dict[int, int] = {}
        for inst in list(block.instructions):
            if isinstance(inst, I.Phi) and id(inst) in phi_var:
                var = phi_var[id(inst)]
                stacks[id(var)].append(inst.dst)
                pushed[id(var)] = pushed.get(id(var), 0) + 1
            elif isinstance(inst, I.Load) and id(inst.var) in candidate_ids:
                replacement[inst.dst] = stacks[id(inst.var)][-1]
                to_delete.append(inst)
            elif isinstance(inst, I.Store) and id(inst.var) in candidate_ids:
                stacks[id(inst.var)].append(inst.value)
                pushed[id(inst.var)] = pushed.get(id(inst.var), 0) + 1
                to_delete.append(inst)
        pushed_counts[id(block)] = pushed

        for succ in block.succs:
            for phi in succ.phis():
                if id(phi) in phi_var:
                    var = phi_var[id(phi)]
                    phi.set_incoming(block, stacks[id(var)][-1])

        work.append(("leave", block))
        for child in reversed(domtree.children.get(block, [])):
            work.append(("visit", child))

    # Resolve replacement chains (a load's value may itself be a deleted
    # load's target) and rewrite every operand in one global pass.
    def resolve(value: Value) -> Value:
        seen = set()
        while isinstance(value, VReg) and value in replacement:
            if id(value) in seen:  # defensive; cycles cannot happen
                break
            seen.add(id(value))
            value = replacement[value]
        return value

    for inst in function.instructions():
        if isinstance(inst, I.Phi):
            inst.incoming = [(b, resolve(v)) for b, v in inst.incoming]
            inst._sync_operands()
        else:
            for i, op in enumerate(inst.operands):
                inst.operands[i] = resolve(op)

    for inst in to_delete:
        inst.remove_from_block()
    for var in candidates:
        del function.frame_vars[var.name]

    # Stores in unreachable blocks were not renamed; strip them so no
    # dangling references to removed frame vars remain.
    for block in function.blocks:
        if block not in domtree.idom and block is not function.entry:
            block.instructions = [
                inst
                for inst in block.instructions
                if not (
                    isinstance(inst, (I.Load, I.Store))
                    and id(inst.var) in candidate_ids
                )
            ]
    return len(candidates)
