"""Live-variable analysis over virtual registers.

Backward dataflow with the usual SSA-aware conventions: a phi's incoming
value is live out of the corresponding *predecessor* (not live into the
phi's block), and a phi's target is defined at the top of its block.
This is what the interference-graph builder (Table 3's substrate)
consumes, both on SSA form and on post-phi-elimination code (where there
are simply no phis left).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.ir.values import VReg


class Liveness:
    def __init__(self, function: Function) -> None:
        self.function = function
        self.live_in: Dict[BasicBlock, Set[VReg]] = {}
        self.live_out: Dict[BasicBlock, Set[VReg]] = {}

    @classmethod
    def compute(cls, function: Function) -> "Liveness":
        from repro.analysis.cfgutils import postorder

        result = cls(function)
        blocks = postorder(function)  # backward problem: postorder converges fast
        use: Dict[BasicBlock, Set[VReg]] = {}
        defs: Dict[BasicBlock, Set[VReg]] = {}
        phi_uses_out: Dict[BasicBlock, Set[VReg]] = {b: set() for b in blocks}

        for block in blocks:
            u: Set[VReg] = set()
            d: Set[VReg] = set()
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    # Incoming values are live at the end of the preds.
                    for pred, value in inst.incoming:
                        if isinstance(value, VReg):
                            phi_uses_out.setdefault(pred, set()).add(value)
                    d.add(inst.dst)
                    continue
                for op in inst.operands:
                    if isinstance(op, VReg) and op not in d:
                        u.add(op)
                if inst.dst is not None:
                    d.add(inst.dst)
            use[block] = u
            defs[block] = d
            result.live_in[block] = set()
            result.live_out[block] = set()

        changed = True
        while changed:
            changed = False
            for block in blocks:
                out: Set[VReg] = set(phi_uses_out.get(block, ()))
                for succ in block.succs:
                    for reg in result.live_in.get(succ, ()):
                        out.add(reg)
                    # Phi targets are not live-in of succ; their incoming
                    # values were collected into phi_uses_out already.
                new_in = use[block] | (out - defs[block])
                if out != result.live_out[block] or new_in != result.live_in[block]:
                    result.live_out[block] = out
                    result.live_in[block] = new_in
                    changed = True
        return result
