"""Dominator tree and dominance frontiers.

Uses the Cooper-Harvey-Kennedy iterative algorithm ("A Simple, Fast
Dominance Algorithm"), which is simple, robust, and fast at our scale,
plus Cooper's two-finger dominance-frontier computation.  ``dominates``
queries are O(1) via preorder timestamp intervals on the dominator tree.

Unreachable blocks are excluded: they have no immediate dominator and do
not appear in :attr:`DominatorTree.reachable`.  Passes are expected to run
:func:`repro.analysis.cfgutils.remove_unreachable_blocks` first if they
need full coverage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


class DominatorTree:
    def __init__(self, function: Function) -> None:
        self.function = function
        #: Immediate dominator of each reachable block (entry maps to None).
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        #: Dominator-tree children, in reverse-postorder for determinism.
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        #: Reachable blocks in reverse postorder.
        self.reachable: List[BasicBlock] = []
        #: Depth of each block in the dominator tree (entry = 0).
        self.depth: Dict[BasicBlock, int] = {}
        self._tin: Dict[BasicBlock, int] = {}
        self._tout: Dict[BasicBlock, int] = {}
        self._frontier: Optional[Dict[BasicBlock, List[BasicBlock]]] = None
        #: The blocks and successor lists the tree was computed on.
        self._cfg: List[tuple] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def compute(cls, function: Function) -> "DominatorTree":
        from repro.analysis.cfgutils import reverse_postorder

        tree = cls(function)
        tree._cfg = _cfg_shape(function)
        rpo = reverse_postorder(function)
        tree.reachable = rpo
        index = {b: i for i, b in enumerate(rpo)}
        entry = function.entry

        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}
        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in block.preds:
                    if pred not in idom:
                        continue  # unreachable or not yet processed
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = _intersect(pred, new_idom, idom, index)
                if new_idom is not None and idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        tree.idom = {b: (None if b is entry else idom[b]) for b in rpo}
        tree.children = {b: [] for b in rpo}
        for block in rpo:
            parent = tree.idom[block]
            if parent is not None:
                tree.children[parent].append(block)
        tree._compute_timestamps(entry)
        return tree

    def _compute_timestamps(self, entry: BasicBlock) -> None:
        clock = 0
        stack: List = [(entry, False)]
        while stack:
            block, done = stack.pop()
            if done:
                self._tout[block] = clock
                clock += 1
                continue
            self._tin[block] = clock
            clock += 1
            parent = self.idom[block]
            self.depth[block] = 0 if parent is None else self.depth[parent] + 1
            stack.append((block, True))
            for child in reversed(self.children[block]):
                stack.append((child, False))

    # -- queries -------------------------------------------------------------

    def matches(self, function: Function) -> bool:
        """True while ``function`` has exactly the blocks and successor
        edges this tree was computed on — a linear check, far cheaper
        than recomputing the tree."""
        return function is self.function and _cfg_shape(function) == self._cfg

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True iff ``a`` dominates ``b`` (reflexively)."""
        if a not in self._tin or b not in self._tin:
            raise KeyError("dominance query on unreachable block")
        return self._tin[a] <= self._tin[b] and self._tout[b] <= self._tout[a]

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def least_common_dominator(self, blocks: List[BasicBlock]) -> BasicBlock:
        """The deepest block dominating every block in ``blocks``.

        The paper uses this as the preheader position of an improper
        (multi-entry) interval.
        """
        if not blocks:
            raise ValueError("least_common_dominator of empty set")
        lcd = blocks[0]
        for block in blocks[1:]:
            lcd = self._lca(lcd, block)
        return lcd

    def _lca(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while self.depth[a] > self.depth[b]:
            a = self.idom[a]  # type: ignore[assignment]
        while self.depth[b] > self.depth[a]:
            b = self.idom[b]  # type: ignore[assignment]
        while a is not b:
            a = self.idom[a]  # type: ignore[assignment]
            b = self.idom[b]  # type: ignore[assignment]
        return a

    def dominance_frontier(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Per-block dominance frontier (computed lazily, cached)."""
        if self._frontier is None:
            frontier: Dict[BasicBlock, List[BasicBlock]] = {
                b: [] for b in self.reachable
            }
            for block in self.reachable:
                if len(block.preds) < 2:
                    continue
                for pred in block.preds:
                    if pred not in self.idom:
                        continue
                    runner = pred
                    while runner is not self.idom[block]:
                        if block not in frontier[runner]:
                            frontier[runner].append(block)
                        nxt = self.idom[runner]
                        if nxt is None:
                            break
                        runner = nxt
            self._frontier = frontier
        return self._frontier


def _cfg_shape(function: Function) -> List[tuple]:
    return [(block, block.succs) for block in function.blocks]


def _intersect(
    a: BasicBlock,
    b: BasicBlock,
    idom: Dict[BasicBlock, Optional[BasicBlock]],
    index: Dict[BasicBlock, int],
) -> BasicBlock:
    while a is not b:
        while index[a] > index[b]:
            a = idom[a]  # type: ignore[assignment]
        while index[b] > index[a]:
            b = idom[b]  # type: ignore[assignment]
    return a
