"""Dead code elimination.

``dead_code_elimination`` removes pure instructions whose results are
never used — including singleton loads, whose only effect is producing a
value.  It never removes a store.

``dead_memory_elimination`` removes the memory phis and singleton stores
whose memory names no non-phi instruction transitively reads (a
mark-and-sweep, so cyclic phi webs in loops are collected too — the plain
"no use" rule of Fig. 11 cannot collect those).
"""

from __future__ import annotations

from typing import List, Set

from repro.ir import instructions as I
from repro.ir.function import Function
from repro.ir.values import VReg


#: Instruction classes that compute a value and have no other effect.
_PURE = (I.Copy, I.BinOp, I.UnOp, I.Phi, I.Load, I.AddrOf, I.Elem)


def dead_code_elimination(function: Function) -> int:
    """Delete pure instructions with unused targets; returns the count."""
    removed = 0
    while True:
        used: Set[VReg] = set()
        for inst in function.instructions():
            for op in inst.operands:
                if isinstance(op, VReg):
                    used.add(op)
        victims: List[I.Instruction] = []
        for inst in function.instructions():
            if (
                isinstance(inst, _PURE)
                and inst.dst is not None
                and inst.dst not in used
            ):
                victims.append(inst)
        if not victims:
            return removed
        for inst in victims:
            inst.remove_from_block()
            removed += 1


def dead_memory_elimination(function: Function) -> int:
    """Combined dead memory-phi *and* dead-store sweep (cycle-aware).

    A memory name is live when a non-phi instruction reads it; liveness
    propagates backward through live phis.  Memory phis and singleton
    stores whose defined names are dead are deleted together — deleting
    them separately leaks: a skipped web's phis fall only at final
    cleanup, orphaning the stores that fed them (observed as creeping
    re-promotion in the idempotence tests).

    Sound because memory SSA links every observable read — later loads,
    calls, pointer references, and returns (which observe all globals) —
    to the reaching name: a store whose name has no transitive non-phi
    reader cannot be observed.  Stores without memory-SSA annotations
    (plain IR) are never touched.
    """
    live: Set[int] = set()
    worklist = []
    for inst in function.instructions():
        if isinstance(inst, I.MemPhi):
            continue
        for name in inst.mem_uses:
            if id(name) not in live:
                live.add(id(name))
                worklist.append(name)
    while worklist:
        name = worklist.pop()
        def_inst = name.def_inst
        if isinstance(def_inst, I.MemPhi):
            for _, operand in def_inst.incoming:
                if id(operand) not in live:
                    live.add(id(operand))
                    worklist.append(operand)

    removed = 0
    for inst in list(function.instructions()):
        if isinstance(inst, I.MemPhi):
            if id(inst.dst_name) not in live:
                inst.remove_from_block()
                removed += 1
        elif isinstance(inst, I.Store):
            if inst.mem_defs and id(inst.mem_defs[0]) not in live:
                inst.remove_from_block()
                removed += 1
    return removed


def remove_dummy_loads(function: Function) -> int:
    """Delete every dummy aliased load ("the algorithm deletes them after
    promotion", §4.4)."""
    removed = 0
    for block in function.blocks:
        before = len(block.instructions)
        block.instructions = [
            inst
            for inst in block.instructions
            if not isinstance(inst, I.DummyAliasedLoad)
        ]
        removed += before - len(block.instructions)
    return removed
