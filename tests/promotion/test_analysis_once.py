"""Each per-function analysis runs once inside the promotion transaction.

Phase 1 computes the dominator tree of the final CFG once, and phases 3
and 4 (which never change the CFG) reuse it; the function is imaged
once, before phase 1, and a rollback is a restore plus a phase-1 replay.
These tests pin that structure, and that it changes no output: a replay
gives the prepared IR byte for byte, and a forced rollback or bisection
leaves the same IR and diagnostics as the per-attempt images did.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from collections import Counter

import pytest

import repro.promotion.pipeline as pipeline_module
from repro.analysis.cfgutils import split_edge
from repro.analysis.dominance import DominatorTree
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir import instructions as I
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.values import Const
from repro.ir.verify import VerificationError, verify_function
from repro.promotion.pipeline import PromotionPipeline, _prepare
from repro.robustness import FaultInjector, ResilienceOptions, UnsoundAliasModel
from repro.robustness.faults import FaultInjectionError
from repro.robustness.diagnostics import FunctionOutcome
from repro.robustness.snapshot import FunctionSnapshot, snapshot_function

from tests.promotion.test_golden_outputs import CORPUS


def test_at_most_one_dominator_tree_per_prepared_function(monkeypatch):
    # The tree of the final CFG, computed by normalization; mem2reg (run
    # after it), memory SSA, promotion and both verifications reuse it.
    computed = Counter()
    real = DominatorTree.compute.__func__

    def counting(cls, function):
        computed[function.name] += 1
        return real(cls, function)

    monkeypatch.setattr(DominatorTree, "compute", classmethod(counting))
    for key, (source, entry, args) in CORPUS.items():
        computed.clear()
        module = compile_source(source, key)
        result = PromotionPipeline(entry=entry, args=list(args)).run(module)
        assert result.diagnostics.skipped_functions == []
        assert set(computed) <= set(module.functions)
        worst = max(computed.values())
        assert worst <= 1, (key, computed)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the counting wrapper reaches the worker only in a forked process",
)
def test_a_supervised_worker_uses_phase_one_trees(monkeypatch, tmp_path):
    # The worker receives each function's tree with the prepared module,
    # so parent and worker together compute one tree per function.
    log = tmp_path / "trees"
    real = DominatorTree.compute.__func__

    def counting(cls, function):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {function.name}\n")
        return real(cls, function)

    monkeypatch.setattr(DominatorTree, "compute", classmethod(counting))
    for name in ("compress", "go"):
        log.write_text("")
        module, result = _run(name, resilience=ResilienceOptions(timeout_s=30))
        assert result.diagnostics.resilience is not None
        assert result.output_matches
        lines = [line.split() for line in log.read_text().splitlines()]
        assert {pid for pid, _ in lines} == {str(os.getpid())}, name
        assert Counter(fn for _, fn in lines) == Counter(list(module.functions)), name
        in_process, _ = _run(name)
        assert print_module(module) == print_module(in_process), name


def test_a_second_attempt_in_one_worker_gets_a_fresh_tree(monkeypatch):
    # A failed attempt is rolled back from one image load, which builds
    # fresh blocks and so uses its tree up; the retry in the same worker
    # computes a fresh tree and gives the in-process IR.  A successful
    # attempt loads no image: the function stays promoted in the copy.
    restores, trees_computed = Counter(), Counter()
    real_restore = FunctionSnapshot.restore
    real_compute = DominatorTree.compute.__func__

    def counting_restore(image):
        function = real_restore(image)
        restores[function.name] += 1
        return function

    def counting_compute(cls, function):
        trees_computed[function.name] += 1
        return real_compute(cls, function)

    failed = set()

    def fails_once(function, mssa, profile, tree, options):
        stats = pipeline_module.promote_function(function, mssa, profile, tree, options)
        if function.name not in failed:
            failed.add(function.name)
            raise RuntimeError("first attempt fails after promoting")
        return stats

    workload = WORKLOADS["go"]
    in_process = compile_source(workload.source, "go")
    expected = PromotionPipeline(
        entry=workload.entry, args=list(workload.args), use_interpreter_profile=False
    ).run(in_process)
    module = compile_source(workload.source, "go")
    trees = {name: _prepare(function) for name, function in module.functions.items()}
    profile = pipeline_module.estimate_profile(module)
    worker = pipeline_module._WorkerPromoter(
        module,
        trees,
        profile,
        fails_once,
        pipeline_module.PromotionOptions(),
        pipeline_module.AliasModel.conservative,
        observe=False,
        journal=False,
        trace_id=None,
    )
    worker.setup()
    monkeypatch.setattr(FunctionSnapshot, "restore", counting_restore)
    monkeypatch.setattr(DominatorTree, "compute", classmethod(counting_compute))
    for name in module.functions:
        restores.clear()
        trees_computed.clear()
        first = worker.promote(name)
        assert first.status == FunctionOutcome.ROLLED_BACK, name
        assert first.stage == "promote" and first.payload is None, name
        assert restores == Counter({name: 1}), name
        assert trees_computed == Counter(), name
        restores.clear()
        second = worker.promote(name)
        assert second.status == FunctionOutcome.PROMOTED, name
        assert expected.diagnostics.outcomes[name].status == second.status, name
        assert restores == Counter(), name
        assert trees_computed == Counter({name: 1}), name
        assert second.stats == expected.stats[name].as_dict(), name
        copy = compile_source(workload.source, "go")
        second.payload.install(copy)
        promoted = print_function(copy.functions[name])
        assert promoted == print_function(in_process.functions[name]), name


def test_recorded_exit_edges_equal_a_fresh_walk_after_promotion(monkeypatch):
    # Each interval's exit edges are recorded once, on the final CFG of
    # phase 1; promotion reads the record once per web.  It never edits
    # the CFG, so the record still equals a fresh walk after the run.
    trees = []
    real = pipeline_module._prepare

    def recording(function):
        tree = real(function)
        trees.append(tree)
        return tree

    monkeypatch.setattr(pipeline_module, "_prepare", recording)
    checked = 0
    for key, (source, entry, args) in CORPUS.items():
        trees.clear()
        module = compile_source(source, key)
        PromotionPipeline(entry=entry, args=list(args)).run(module)
        assert len(trees) == len(module.functions), key
        for tree in trees:
            for interval in [tree.root, *tree.intervals]:
                assert interval.exits == interval.exit_edges(), (key, interval)
                checked += bool(interval.exits)
    assert checked > len(CORPUS)


def test_each_function_is_imaged_once(monkeypatch):
    images = Counter()
    real = pipeline_module.snapshot_function

    def counting(function):
        images[function.name] += 1
        return real(function)

    monkeypatch.setattr(pipeline_module, "snapshot_function", counting)
    for name in ORDER:
        images.clear()
        workload = WORKLOADS[name]
        module = compile_source(workload.source, name)
        PromotionPipeline(entry=workload.entry, args=list(workload.args)).run(module)
        assert images == Counter({fn: 1 for fn in module.functions}), name


STALE = """
module m
global @g = 0

func @main() {
entry:
  %c = lt 1, 2
  br %c, a, join
a:
  jmp join
join:
  ret 0
}
"""


def test_verify_recomputes_a_stale_tree_and_still_rejects():
    module = parse_module(STALE)
    function = module.functions["main"]
    domtree = DominatorTree.compute(function)
    assert domtree.matches(function)
    # Split entry -> join: the new block is in no tree computed before.
    middle = split_edge(function.find_block("entry"), function.find_block("join"))
    assert not domtree.matches(function)
    verify_function(function, check_ssa=True, domtree=domtree)
    # Plant a use in ``join`` of a register defined in the new block, on
    # one path only: the stale tree does not know that block at all.
    value = function.new_reg("v")
    middle.insert_before(I.Copy(value, Const(7)), middle.terminator)
    join = function.find_block("join")
    join.insert_before(I.Copy(function.new_reg("u"), value), join.terminator)
    with pytest.raises(VerificationError, match="does not dominate"):
        verify_function(function, check_ssa=True, domtree=domtree)


def test_phase_one_replay_is_byte_identical():
    for key, (source, _, _) in CORPUS.items():
        module = compile_source(source, key)
        for function in module.functions.values():
            image = snapshot_function(function)
            _prepare(function)
            prepared = print_function(function)
            replayed = pipeline_module._replay(image)
            assert print_function(function) == prepared, (key, function.name)
            assert replayed.domtree.matches(function)


# -- forced rollbacks and bisection --------------------------------------------


def _fingerprint(module, result) -> str:
    diagnostics = json.loads(result.diagnostics.to_json())
    for outcome in diagnostics["functions"]:
        outcome["duration_ms"] = 0.0  # timing is not an output
    doc = {
        "ir": print_module(module),
        "counts": [
            result.static_before.loads,
            result.static_before.stores,
            result.static_after.loads,
            result.static_after.stores,
            result.dynamic_before.loads,
            result.dynamic_before.stores,
            result.dynamic_after.loads,
            result.dynamic_after.stores,
        ],
        "stats": {name: s.as_dict() for name, s in sorted(result.stats.items())},
        "output_matches": result.output_matches,
        "diagnostics": diagnostics,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _sabotaged_run(monkeypatch, name):
    """Run ``name`` with a memory-SSA corruption planted after promotion
    in every function it applies to: phase 4's verifier rolls back each
    one whose corruption survives cleanup."""
    real = pipeline_module.promote_function
    applied = []

    def sabotaged(function, mssa, profile, tree, options):
        stats = real(function, mssa, profile, tree, options)
        try:
            FaultInjector().apply("undefined_mem_use", function)
        except FaultInjectionError:
            return stats
        applied.append(function.name)
        return stats

    monkeypatch.setattr(pipeline_module, "promote_function", sabotaged)
    return _run(name), applied


def _run(name, **pipeline_args):
    workload = WORKLOADS[name]
    module = compile_source(workload.source, name)
    result = PromotionPipeline(
        entry=workload.entry, args=list(workload.args), **pipeline_args
    ).run(module)
    return module, result


#: ``_fingerprint`` of each forced run, recorded with per-attempt images
#: (a pre-phase-3 image per function, restored on a rollback and on every
#: bisection step) before a rollback became a restore plus a replay.
PINNED = {
    "rollback": {
        "go": "bdf847139bbe66b3b5a88b35f2b2973e16939104353c54b0116c438522c98c5f",
        "li": "d40344904d02dc7a9430eec77e35ff4d9ac46967a8815b9e4f2fe814976119c4",
        "ijpeg": "f0711b2b020ddc15612dc8048ae983e8f945487b5d4c556254b9f28043eff772",
        "perl": "7c4de996cca49d8cece5a6f29b824956d17b7a57138e449055b2b348351f189e",
        "m88ksim": "a737a23cf82b6a6825cc53f22133b8f361afb3ba3dfe76d1176fefde6066d5dd",
        "gcc": "ad7cdb7eea9a25f8af94847edc764842b64da1a1fea94fbb58e3cc6e0d74028d",
        "compress": "90dc03696274cb52eef579dfb8b6790662012d2cda07784dffe97eba6aa7e7de",
        "vortex": "155ee374ce43a551a4f346ec07a8979181371d3245bb328f2b2669bae2dddf59",
    },
    "bisection": {
        "go": "3d3111c3d66a33d97252d8aad8a2e70f897bc42aba2388d16724c7134ded2ac5",
        "li": "0f63b8bce27767219aa09fc0d008f44e688fdcbcbd1b3435e2b185d37346cfc1",
        "ijpeg": "321631f60ea51b90d08c225465cc5fe106a0246de2a3ca1213fbb2b810efb19d",
        "perl": "b21dd7aa35d7a22a0d6a9610efac832487fa819b6e58fd9c39a1d9881b9583f2",
        "m88ksim": "38c0b4945be57285d28dd42d4cf9182603435d50232c96bf0bfa8c1d2efdea2a",
        "gcc": "f10f022f69fbea1cb16d64fcbf38ef32414ed728b4c45db3cdec929509525ea4",
        "compress": "2fa28075fb92498cb7030fd76a655d9981f8b4657aa66286b0da979eeb43bdd8",
        "vortex": "bcdb374b74252d16d70f13e021b4b72da56e3199173fc1a726e5fe1c9a6bc16f",
    },
}


@pytest.mark.parametrize("name", ORDER)
def test_forced_rollback_matches_per_attempt_images(monkeypatch, name):
    (module, result), applied = _sabotaged_run(monkeypatch, name)
    rolled_back = result.diagnostics.rolled_back_functions
    assert rolled_back and set(rolled_back) <= set(applied)
    assert result.output_matches
    assert _fingerprint(module, result) == PINNED["rollback"][name]


@pytest.mark.parametrize("name", ORDER)
def test_forced_bisection_matches_per_attempt_images(name):
    module, result = _run(name, alias_model=UnsoundAliasModel)
    bisection = result.diagnostics.bisection
    assert bisection is not None and bisection.resolved and bisection.culprits
    assert result.output_matches
    assert _fingerprint(module, result) == PINNED["bisection"][name]
