"""The baselines run through the one PromotionPipeline, and that changes
none of their results.

The baselines used to have a pipeline of their own: phases 1-5 without
transactions, per-function verification, bisection or diagnostics.  It
is frozen below as the reference.  On the eight proxies and 200
generated programs, the shared pipeline must print the same IR, count
the same static and dynamic operations, report the same per-function
stats and agree on behaviour.
"""

import pytest

from repro.analysis.intervals import normalize_for_promotion
from repro.baselines import lu_cooper_promote, mahlke_promote
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.ir.verify import verify_module
from repro.memory.aliasing import AliasModel
from repro.memory.memssa import build_memory_ssa
from repro.passes.copyprop import propagate_copies
from repro.passes.dce import (
    dead_code_elimination,
    dead_memory_elimination,
    remove_dummy_loads,
)
from repro.profile.estimator import estimate_profile
from repro.profile.interp import Interpreter
from repro.profile.profiles import ProfileData
from repro.promotion.pipeline import (
    DynamicCounts,
    PipelineResult,
    PromotionPipeline,
    StaticCounts,
)
from repro.ssa.construct import construct_ssa

from tests.property.genprog import random_program


def _frozen_baseline_run(promote_fn, module, entry="main", args=()):
    """The previous baseline pipeline's ``run``, frozen."""
    max_steps = 50_000_000
    args = list(args)
    result = PipelineResult(module)
    trees = {}
    for function in module.functions.values():
        construct_ssa(function)
        trees[function.name] = normalize_for_promotion(function)
    result.static_before = StaticCounts.of_module(module)

    before_run = None
    if entry in module.functions:
        before_run = Interpreter(module, max_steps=max_steps).run(entry, args)
        result.profile = ProfileData.from_execution(before_run)
        result.dynamic_before = DynamicCounts.of_execution(before_run)
    else:
        result.profile = estimate_profile(module)

    model = AliasModel.conservative(module)
    for function in module.functions.values():
        mssa = build_memory_ssa(function, model)
        result.stats[function.name] = promote_fn(
            function, mssa, result.profile, trees[function.name]
        )

    for function in module.functions.values():
        remove_dummy_loads(function)
        propagate_copies(function)
        dead_code_elimination(function)
        dead_memory_elimination(function)
    verify_module(module, check_ssa=True, check_memssa=True)
    result.static_after = StaticCounts.of_module(module)

    if before_run is not None:
        after_run = Interpreter(module, max_steps=max_steps).run(entry, args)
        result.dynamic_after = DynamicCounts.of_execution(after_run)
        result.output_matches = (
            after_run.output == before_run.output
            and after_run.return_value == before_run.return_value
            and after_run.globals_snapshot() == before_run.globals_snapshot()
        )
    return result


def _inputs():
    for name in ORDER:
        workload = WORKLOADS[name]
        yield name, workload.source, workload.entry, list(workload.args)
    for seed in range(200):
        yield f"genprog-{seed}", random_program(seed), "main", []


def _observed(result, module):
    return (
        print_module(module),
        (result.static_before.loads, result.static_before.stores),
        (result.static_after.loads, result.static_after.stores),
        (result.dynamic_before.loads, result.dynamic_before.stores),
        (result.dynamic_after.loads, result.dynamic_after.stores),
        {name: stats.as_dict() for name, stats in result.stats.items()},
        result.output_matches,
    )


@pytest.mark.parametrize(
    "promoter", [lu_cooper_promote, mahlke_promote], ids=["lucooper", "mahlke"]
)
def test_shared_pipeline_matches_the_frozen_baseline_pipeline(promoter):
    for label, source, entry, args in _inputs():
        frozen_module = compile_source(source)
        frozen = _frozen_baseline_run(promoter, frozen_module, entry, args)
        module = compile_source(source)
        shared = PromotionPipeline(promoter=promoter, entry=entry, args=args).run(
            module
        )
        assert _observed(shared, module) == _observed(frozen, frozen_module), label
        # The shared pipeline had nothing to roll back.
        assert shared.diagnostics.clean, label
