"""Interval analysis: the loop-nesting structure promotion is scoped by.

The paper defines an interval as "a strongly connected component of a
control flow graph" and promotes bottom-up over the *interval tree*.  We
build that tree by recursive SCC decomposition (Bourdoncle's construction):
the non-trivial SCCs of the CFG are the outermost intervals; removing the
edges that enter each interval's entry blocks and recursing inside yields
nested intervals.  This handles *improper* (multi-entry, irreducible)
intervals naturally: an SCC may have several entry blocks, in which case
the unique preheader position "is the least common dominator of all of the
entry basic blocks" (Section 4.1).

A pseudo-interval — the *root region*, covering the whole function body —
is the final promotion scope, so straight-line top-level code can also be
promoted (stores sink to the returns, which observe globals).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfgutils import (
    remove_unreachable_blocks,
    reverse_postorder,
    split_critical_edges,
    split_edge,
)
from repro.analysis.dominance import DominatorTree
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Jump, MemPhi, Phi


class Interval:
    """One interval (strongly connected region) or the root region."""

    def __init__(
        self,
        header: BasicBlock,
        blocks: Sequence[BasicBlock],
        entries: Sequence[BasicBlock],
        is_root: bool = False,
    ) -> None:
        #: Primary entry (first entry in reverse postorder).
        self.header = header
        #: All member blocks, including nested intervals' blocks.
        self.blocks: List[BasicBlock] = list(blocks)
        self._block_ids: Set[int] = {id(b) for b in self.blocks}
        #: Blocks with a predecessor outside the interval.
        self.entries: List[BasicBlock] = list(entries)
        self.is_root = is_root
        self.parent: Optional["Interval"] = None
        self.children: List["Interval"] = []
        #: Loop-nesting depth; the root region has depth 0.
        self.depth = 0
        #: Block whose end is the load-insertion point for this interval
        #: (a dedicated preheader block for proper intervals, the least
        #: common dominator of the entries for improper ones).  Assigned
        #: by :func:`normalize_for_promotion` / :meth:`IntervalTree.compute`.
        self.preheader: Optional[BasicBlock] = None
        #: :meth:`exit_edges` of the final CFG, recorded once when the
        #: preheaders are assigned; promotion, which never edits the CFG,
        #: reads this list once per web.
        self.exits: Optional[List[Tuple[BasicBlock, BasicBlock]]] = None

    @property
    def is_proper(self) -> bool:
        """Single-entry (reducible) interval."""
        return len(self.entries) == 1

    def contains(self, block: BasicBlock) -> bool:
        return id(block) in self._block_ids

    def exit_edges(self) -> List[Tuple[BasicBlock, BasicBlock]]:
        """Edges from a member block to a non-member, in block order."""
        result = []
        for block in self.blocks:
            for succ in block.succs:
                if not self.contains(succ):
                    result.append((block, succ))
        return result

    def back_edge_preds(self) -> List[BasicBlock]:
        """Member predecessors of the entries (latch blocks)."""
        result = []
        for entry in self.entries:
            for pred in entry.preds:
                if self.contains(pred):
                    result.append(pred)
        return result

    def __repr__(self) -> str:
        kind = (
            "root" if self.is_root else ("interval" if self.is_proper else "improper")
        )
        return f"Interval({kind} @{self.header.name}, {len(self.blocks)} blocks)"


class IntervalTree:
    """The interval tree of one function, rooted at the whole-body region."""

    def __init__(self, function: Function, root: Interval) -> None:
        self.function = function
        self.root = root
        #: The dominator tree the preheaders were located with (set by
        #: :meth:`assign_preheaders`).  Promotion never edits the CFG, so
        #: phases 3 and 4 use this tree instead of computing their own.
        self.domtree: Optional[DominatorTree] = None
        #: Every interval (excluding the root region), outermost first.
        self.intervals: List[Interval] = []
        self._collect(root)

    def _collect(self, interval: Interval) -> None:
        for child in interval.children:
            self.intervals.append(child)
            self._collect(child)

    @classmethod
    def compute(
        cls, function: Function, domtree: Optional[DominatorTree] = None
    ) -> "IntervalTree":
        tree = cls.structure(function)
        tree.assign_preheaders(domtree or DominatorTree.compute(function))
        return tree

    @classmethod
    def structure(cls, function: Function) -> "IntervalTree":
        """The intervals and their nesting, without preheaders (so no
        dominator tree is needed)."""
        rpo = reverse_postorder(function)
        rpo_index = {id(b): i for i, b in enumerate(rpo)}
        root = Interval(function.entry, rpo, [function.entry], is_root=True)
        _find_nested(rpo, set(), root, rpo_index)
        _assign_depths(root)
        return cls(function, root)

    def assign_preheaders(self, domtree: DominatorTree) -> None:
        """Locate each interval's preheader position (without editing the
        CFG; :func:`normalize_for_promotion` creates dedicated blocks) and
        record its exit edges.  Called once, on the final CFG."""
        self.domtree = domtree
        self.root.preheader = None  # loads go at the top of the entry block
        self.root.exits = self.root.exit_edges()
        for interval in self.intervals:
            interval.exits = interval.exit_edges()
            if interval.is_proper:
                # None when the interval needs a dedicated block.
                interval.preheader = _dedicated_preheader(interval)
            else:
                # The paper: the preheader of an improper interval is the
                # least common dominator of the entry blocks — more
                # precisely, a block that *strictly dominates all* of the
                # interval's blocks, so hoist until outside the interval.
                lcd = domtree.least_common_dominator(interval.entries)
                while interval.contains(lcd):
                    parent = domtree.idom[lcd]
                    if parent is None:
                        break
                    lcd = parent
                interval.preheader = lcd

    def bottom_up(self) -> Iterator[Interval]:
        """All intervals, children before parents, root region last."""
        yield from self._bottom_up(self.root)

    def _bottom_up(self, interval: Interval) -> Iterator[Interval]:
        for child in interval.children:
            yield from self._bottom_up(child)
        yield interval

    def innermost(self, block: BasicBlock) -> Interval:
        """The innermost interval (or root region) containing ``block``."""
        best = self.root
        stack = list(self.root.children)
        while stack:
            interval = stack.pop()
            if interval.contains(block):
                if interval.depth > best.depth:
                    best = interval
                stack.extend(interval.children)
        return best

    def loop_depth(self, block: BasicBlock) -> int:
        return self.innermost(block).depth


def _dedicated_preheader(interval: Interval) -> Optional[BasicBlock]:
    """The proper interval's one outside predecessor of the header, when
    that block only jumps to the header; otherwise None."""
    outside = [p for p in interval.header.preds if not interval.contains(p)]
    if len(outside) == 1 and len(outside[0].succs) == 1:
        return outside[0]
    return None


def _find_nested(
    nodes: List[BasicBlock],
    removed_edges: Set[Tuple[int, int]],
    parent: Interval,
    rpo_index: Dict[int, int],
) -> None:
    """Find the outermost SCCs of the subgraph ``nodes`` (minus
    ``removed_edges``), attach them to ``parent``, and recurse."""
    node_ids = {id(b) for b in nodes}

    def succs(block: BasicBlock) -> List[BasicBlock]:
        return [
            s
            for s in block.succs
            if id(s) in node_ids and (id(block), id(s)) not in removed_edges
        ]

    for scc in _tarjan_sccs(nodes, succs):
        if len(scc) == 1 and scc[0] not in succs(scc[0]):
            continue  # trivial SCC
        scc_ids = {id(b) for b in scc}
        entries = [
            b
            for b in scc
            if b is b.function.entry
            or any(id(p) not in scc_ids for p in b.preds)
        ]
        if not entries:
            # Unreachable cycle; skip (callers should have removed these).
            continue
        entries.sort(key=lambda b: rpo_index[id(b)])
        scc_sorted = sorted(scc, key=lambda b: rpo_index[id(b)])
        interval = Interval(entries[0], scc_sorted, entries)
        interval.parent = parent
        parent.children.append(interval)
        # Remove the edges entering the entry blocks and find inner loops.
        inner_removed = set(removed_edges)
        for entry in entries:
            for pred in entry.preds:
                if id(pred) in scc_ids:
                    inner_removed.add((id(pred), id(entry)))
        _find_nested(scc_sorted, inner_removed, interval, rpo_index)
    parent.children.sort(key=lambda iv: rpo_index[id(iv.header)])


def _assign_depths(root: Interval) -> None:
    stack = [(root, 0)]
    while stack:
        interval, depth = stack.pop()
        interval.depth = depth
        for child in interval.children:
            stack.append((child, depth + 1))


def _tarjan_sccs(nodes: List[BasicBlock], succs) -> List[List[BasicBlock]]:
    """Iterative Tarjan SCC over ``nodes`` with the given successor
    function; SCCs are returned in reverse topological discovery order,
    deterministically."""
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[BasicBlock] = []
    sccs: List[List[BasicBlock]] = []
    counter = [0]

    for start in nodes:
        if id(start) in index_of:
            continue
        work: List[Tuple[BasicBlock, int]] = [(start, 0)]
        while work:
            node, si = work[-1]
            if si == 0:
                index_of[id(node)] = lowlink[id(node)] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(id(node))
            children = succs(node)
            advanced = False
            while si < len(children):
                child = children[si]
                si += 1
                if id(child) not in index_of:
                    work[-1] = (node, si)
                    work.append((child, 0))
                    advanced = True
                    break
                if id(child) in on_stack:
                    lowlink[id(node)] = min(lowlink[id(node)], index_of[id(child)])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[id(parent)] = min(lowlink[id(parent)], lowlink[id(node)])
            if lowlink[id(node)] == index_of[id(node)]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(id(member))
                    scc.append(member)
                    if member is node:
                        break
                sccs.append(scc)
    return sccs


def normalize_for_promotion(function: Function) -> IntervalTree:
    """Prepare a function's CFG for register promotion.

    Removes unreachable blocks, splits critical edges, gives every proper
    interval a dedicated preheader block, and gives every interval exit
    edge a dedicated tail block (target with exactly one predecessor).
    Returns the recomputed interval tree with preheaders assigned; its
    ``domtree`` is the one dominator tree of the final CFG.

    The paper assumes all of this (Section 4.1): entry/exit edges are not
    critical, a preheader "strictly dominates all of the basic blocks in
    the interval", and "the target of an interval exit edge is called a
    tail and is outside the interval".
    """
    remove_unreachable_blocks(function)
    split_critical_edges(function)
    # The intermediate trees only need the interval structure; dominators
    # are computed once, on the final CFG.
    tree = IntervalTree.structure(function)

    needy = [
        interval
        for interval in tree.intervals
        if interval.is_proper and _dedicated_preheader(interval) is None
    ]
    for interval in needy:
        _create_preheader(function, interval)
    # Dedicated tails: split exit edges whose target has several preds.
    tree = IntervalTree.structure(function) if needy else tree
    changed = False
    for interval in tree.intervals:
        for src, dst in interval.exit_edges():
            if len(dst.preds) > 1:
                split_edge(src, dst, hint="tail")
                changed = True
    if changed:
        tree = IntervalTree.structure(function)
    tree.assign_preheaders(DominatorTree.compute(function))
    return tree


def _create_preheader(function: Function, interval: Interval) -> BasicBlock:
    """Create a dedicated preheader block for a proper interval.

    All edges from outside predecessors into the header are redirected to
    a fresh block ending in a jump to the header.  Phi and memphi inputs
    in the header are folded: the outside incoming values move to a new
    phi in the preheader.
    """
    header = interval.header
    outside = [p for p in header.preds if not interval.contains(p)]
    pre = function.new_block("ph")

    for phi in list(header.all_phis()):
        if isinstance(phi, Phi):
            outside_in = [(b, v) for b, v in phi.incoming if b in outside]
            if len(outside_in) == 1:
                merged = outside_in[0][1]
            else:
                merged_reg = function.new_reg("ph")
                pre.insert_at_front(Phi(merged_reg, outside_in))
                merged = merged_reg
            phi.incoming = [(b, v) for b, v in phi.incoming if b not in outside]
            phi.incoming.append((pre, merged))
            phi._sync_operands()
        elif isinstance(phi, MemPhi):
            outside_in = [(b, n) for b, n in phi.incoming if b in outside]
            if len(outside_in) == 1:
                merged_name = outside_in[0][1]
            else:
                merged_name = function.new_mem_name(phi.var)
                pre.insert_at_front(MemPhi(phi.var, merged_name, outside_in))
            phi.incoming = [(b, n) for b, n in phi.incoming if b not in outside]
            phi.incoming.append((pre, merged_name))
            phi._sync_mem_uses()

    pre.append(Jump(header))
    for pred in outside:
        pred.retarget(header, pre)
    return pre
