"""Whole-pipeline compile-time scaling on generated program suites.

Times the complete pipeline (parse → lower → mem2reg → normalize →
profile → memory SSA → promote → cleanup → verify → re-run) over a batch
of generated programs — the compile-time budget story for adopting the
pass, complementing the per-table result benchmarks.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")  # tests.* helpers when run from the repo root

from tests.property.genprog import random_program  # noqa: E402

from repro.frontend.lower import compile_source  # noqa: E402
from repro.promotion.pipeline import PromotionPipeline  # noqa: E402


SEEDS = list(range(100, 120))


def test_pipeline_batch_of_20_programs(benchmark):
    sources = [random_program(seed) for seed in SEEDS]

    def run():
        ok = 0
        for source in sources:
            module = compile_source(source)
            result = PromotionPipeline().run(module)
            assert result.output_matches
            ok += 1
        return ok

    assert benchmark.pedantic(run, rounds=2, iterations=1) == len(SEEDS)


def test_frontend_only_batch(benchmark):
    sources = [random_program(seed) for seed in SEEDS]

    def run():
        return [compile_source(source) for source in sources]

    modules = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(modules) == len(SEEDS)


def test_promotion_only_go_proxy(benchmark):
    """Promotion phases alone (no interpreter runs) on the go proxy."""
    from repro.bench.workloads import WORKLOADS
    from repro.memory.aliasing import AliasModel
    from repro.memory.memssa import build_memory_ssa
    from repro.profile.estimator import estimate_profile
    from repro.promotion.driver import promote_function
    from repro.promotion.pipeline import _prepare

    def run():
        module = compile_source(WORKLOADS["go"].source)
        trees = {}
        for f in module.functions.values():
            trees[f.name] = _prepare(f)
        profile = estimate_profile(module)
        model = AliasModel.conservative(module)
        stats = []
        for f in module.functions.values():
            mssa = build_memory_ssa(f, model)
            stats.append(promote_function(f, mssa, profile, trees[f.name]))
        return stats

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sum(s.webs_promoted for s in stats) >= 1
