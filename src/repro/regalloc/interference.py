"""Register interference graphs.

Two virtual registers interfere when one is live at a definition point of
the other (the classic Chaitin construction, walking each block backward
from its live-out set).  Phis are handled SSA-style: incoming values are
live out of the corresponding predecessors, and all phi targets of a
block are defined in parallel at its top.  The builder also works on
post-phi-elimination code, where copies make interference explicit.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.liveness import Liveness
from repro.ir import instructions as I
from repro.ir.function import Function
from repro.ir.values import VReg


class InterferenceGraph:
    def __init__(self) -> None:
        self.nodes: List[VReg] = []
        self._adj: Dict[VReg, Set[VReg]] = {}

    def add_node(self, reg: VReg) -> None:
        if reg not in self._adj:
            self._adj[reg] = set()
            self.nodes.append(reg)

    def add_edge(self, a: VReg, b: VReg) -> None:
        if a is b:
            return
        self.add_node(a)
        self.add_node(b)
        self._adj[a].add(b)
        self._adj[b].add(a)

    def neighbors(self, reg: VReg) -> Set[VReg]:
        return self._adj.get(reg, set())

    def degree(self, reg: VReg) -> int:
        return len(self._adj.get(reg, ()))

    def interferes(self, a: VReg, b: VReg) -> bool:
        return b in self._adj.get(a, ())

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj.values()) // 2

    def __len__(self) -> int:
        return len(self.nodes)


def build_interference_graph(function: Function) -> InterferenceGraph:
    graph = InterferenceGraph()
    liveness = Liveness.compute(function)

    for param in function.params:
        graph.add_node(param)
    for inst in function.instructions():
        if inst.dst is not None:
            graph.add_node(inst.dst)

    for block in function.blocks:
        live: Set[VReg] = set(liveness.live_out[block])
        body = [i for i in block.instructions if not isinstance(i, I.Phi)]
        for inst in reversed(body):
            if inst.dst is not None:
                # A copy's source does not interfere with its target
                # (classic coalescing-friendly refinement).
                exempt = (
                    inst.src
                    if isinstance(inst, I.Copy) and isinstance(inst.src, VReg)
                    else None
                )
                for other in live:
                    if other is not inst.dst and other is not exempt:
                        graph.add_edge(inst.dst, other)
                live.discard(inst.dst)
            for op in inst.operands:
                if isinstance(op, VReg):
                    live.add(op)
        # Phi targets are defined in parallel at the block top: they
        # interfere with each other and with everything live there.
        phis = list(block.phis())
        targets = [p.dst for p in phis]
        for i, a in enumerate(targets):
            for b in targets[i + 1:]:
                graph.add_edge(a, b)
            for other in live:
                if other is not a:
                    graph.add_edge(a, other)
    return graph
