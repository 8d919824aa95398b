"""Section 4.5's efficiency claim: batched incremental SSA update vs
one-definition-at-a-time [CSS96].

"Their work dealt with one inserted definition at a time and has to
compute iterative dominance frontier for every inserted definition ...
For m definitions, they need O(m x n) time ... In our algorithm, multiple
definitions including the cloned ones and the old ones are handled
simultaneously."

We synthesize a chain-of-diamonds CFG with ``n`` blocks, insert ``m``
cloned stores of one global, and run both updaters.  The batched update
must do less work, and its advantage must *grow* with m: counted as IDF
computations and the blocks they visit, and timed.
"""

from __future__ import annotations

import copy
import time
from collections import Counter

import repro.ssa.incremental as incremental

from repro.ir import instructions as I
from repro.ir.module import Module
from repro.ir.values import Const
from repro.ssa.css96 import css96_update
from repro.ssa.incremental import update_ssa_for_cloned_resources


def build_diamond_chain(n_diamonds: int, clone_every: int):
    """A chain of n diamonds over global @x with a use in every join;
    returns (module, function, entry_name, list of (block, position) clone
    sites)."""
    module = Module()
    x = module.add_global("x")
    func = module.new_function("f")
    entry = func.add_block("entry")
    x0 = func.new_mem_name(x)
    x0.version = 0
    x0.def_inst = None

    prev = entry
    clone_blocks = []
    for i in range(n_diamonds):
        left = func.new_block("l")
        right = func.new_block("r")
        join = func.new_block("j")
        cond = func.new_reg("c")
        prev.append(I.Copy(cond, Const(i % 2)))
        prev.append(I.CondBr(cond, left, right))
        left.append(I.Jump(join))
        right.append(I.Jump(join))
        load = I.Load(func.new_reg("t"), x)
        load.mem_uses = [x0]
        join.insert_at_front(load)
        if i % clone_every == 0:
            clone_blocks.append(left)
        prev = join
    prev.append(I.Ret())
    return module, func, x0, clone_blocks


def insert_clones(func, var, blocks):
    cloned = []
    for block in blocks:
        store = I.Store(var, Const(7))
        block.insert_at_front(store)
        name = func.new_mem_name(var, store)
        store.mem_defs = [name]
        cloned.append(name)
    return cloned


N_DIAMONDS = 60
CLONE_EVERY = 4  # 15 cloned definitions


def _run_batched():
    module, func, x0, sites = build_diamond_chain(N_DIAMONDS, CLONE_EVERY)
    cloned = insert_clones(func, x0.var, sites)
    update_ssa_for_cloned_resources(func, [x0], cloned)
    return func


def _run_css96():
    module, func, x0, sites = build_diamond_chain(N_DIAMONDS, CLONE_EVERY)
    cloned = insert_clones(func, x0.var, sites)
    css96_update(func, [x0], cloned)
    return func


def test_batched_update(benchmark):
    func = benchmark.pedantic(_run_batched, rounds=5, iterations=1)
    from repro.ir.verify import verify_function

    verify_function(func, check_memssa=True)


def test_css96_update(benchmark):
    func = benchmark.pedantic(_run_css96, rounds=5, iterations=1)
    from repro.ir.verify import verify_function

    verify_function(func, check_memssa=True)


def test_batched_beats_css96_and_scales(benchmark):
    """Direct head-to-head: batched wins, and the ratio grows with m."""

    def measure(clone_every: int):
        t0 = time.perf_counter()
        module, func, x0, sites = build_diamond_chain(N_DIAMONDS, clone_every)
        cloned = insert_clones(func, x0.var, sites)
        update_ssa_for_cloned_resources(func, [x0], cloned)
        batched = time.perf_counter() - t0

        t0 = time.perf_counter()
        module, func, x0, sites = build_diamond_chain(N_DIAMONDS, clone_every)
        cloned = insert_clones(func, x0.var, sites)
        css96_update(func, [x0], cloned)
        per_def = time.perf_counter() - t0
        return batched, per_def

    def run():
        few_batched, few_perdef = measure(clone_every=20)   # m = 3
        many_batched, many_perdef = measure(clone_every=2)  # m = 30
        return few_batched, few_perdef, many_batched, many_perdef

    few_b, few_p, many_b, many_p = benchmark.pedantic(run, rounds=3, iterations=1)
    # Batched wins outright at high m...
    assert many_b < many_p
    # ...and the per-definition scheme degrades faster as m grows.
    assert many_p / max(few_p, 1e-9) > many_b / max(few_b, 1e-9)


class _CountingChildren(dict):
    """A dominator tree's children map that counts its lookups: the
    DJ-graph IDF looks up the children of each block it visits once."""

    lookups = 0

    def get(self, block, default=None):
        self.lookups += 1
        return super().get(block, default)


def idf_work(update, clone_every: int) -> Counter:
    """IDF computations and blocks visited by them while ``update``
    inserts one cloned store every ``clone_every`` diamonds."""
    work = Counter()
    real = incremental.iterated_dominance_frontier

    def counting(domtree, defs):
        view = copy.copy(domtree)
        view.children = children = _CountingChildren(domtree.children)
        idf = real(view, defs)
        work["idf"] += 1
        work["blocks"] += children.lookups
        return idf

    module, func, x0, sites = build_diamond_chain(N_DIAMONDS, clone_every)
    cloned = insert_clones(func, x0.var, sites)
    incremental.iterated_dominance_frontier = counting
    try:
        update(func, [x0], cloned)
    finally:
        incremental.iterated_dominance_frontier = real
    return work


def test_batched_does_less_idf_work_and_scales():
    """The claim on deterministic counts: one IDF for all m definitions
    against one per definition, so CSS96's work grows with m (on this
    chain: 181 blocks visited batched at both m, 543 and 5,430 by CSS96)."""
    few_b = idf_work(update_ssa_for_cloned_resources, clone_every=20)  # m = 3
    few_p = idf_work(css96_update, clone_every=20)
    many_b = idf_work(update_ssa_for_cloned_resources, clone_every=2)  # m = 30
    many_p = idf_work(css96_update, clone_every=2)
    assert (few_b["idf"], many_b["idf"]) == (1, 1)
    assert (few_p["idf"], many_p["idf"]) == (3, 30)
    assert min(few_b["blocks"], many_b["blocks"]) > 0
    # Batched does less work at high m...
    assert many_b["blocks"] < many_p["blocks"]
    # ...and the per-definition scheme's work grows faster with m.
    assert many_p["blocks"] / few_p["blocks"] > many_b["blocks"] / few_b["blocks"]
