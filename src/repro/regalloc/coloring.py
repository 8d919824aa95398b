"""Graph coloring in the Chaitin-Briggs style.

``colors_needed`` answers Table 3's question: the smallest k for which
Briggs-style optimistic simplification colors the interference graph
without a (potential) spill.  This is a heuristic chromatic number — the
same quantity a production allocator's "colors needed" report gives —
computed by binary search over k.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.values import VReg
from repro.regalloc.interference import InterferenceGraph


class ColoringResult:
    def __init__(self, k: int) -> None:
        self.k = k
        self.assignment: Dict[VReg, int] = {}
        self.spilled: List[VReg] = []

    @property
    def colorable(self) -> bool:
        return not self.spilled


def color_graph(graph: InterferenceGraph, k: int) -> ColoringResult:
    """Briggs optimistic coloring with k colors.

    Simplify nodes of degree < k first; when stuck, optimistically push a
    maximum-degree node (it may still color).  Nodes that fail to color
    during select are reported as spilled.
    """
    result = ColoringResult(k)
    degrees = {node: graph.degree(node) for node in graph.nodes}
    removed: Set[VReg] = set()
    stack: List[VReg] = []

    remaining = list(graph.nodes)
    while remaining:
        candidate: Optional[VReg] = None
        for node in remaining:
            if degrees[node] < k:
                candidate = node
                break
        if candidate is None:
            # Optimistic spill candidate: highest current degree.
            candidate = max(remaining, key=lambda n: degrees[n])
        stack.append(candidate)
        removed.add(candidate)
        remaining.remove(candidate)
        for neighbor in graph.neighbors(candidate):
            if neighbor not in removed:
                degrees[neighbor] -= 1

    while stack:
        node = stack.pop()
        taken = {
            result.assignment[n]
            for n in graph.neighbors(node)
            if n in result.assignment
        }
        color = next((c for c in range(k) if c not in taken), None)
        if color is None:
            result.spilled.append(node)
        else:
            result.assignment[node] = color
    return result


def colors_needed(graph: InterferenceGraph) -> int:
    """Smallest k that colors the graph without spills (Table 3's
    metric).  Binary search between 1 and max degree + 1."""
    if len(graph) == 0:
        return 0
    lo, hi = 1, max(graph.degree(n) for n in graph.nodes) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if color_graph(graph, mid).colorable:
            hi = mid
        else:
            lo = mid + 1
    return lo
