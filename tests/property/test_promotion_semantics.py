"""The central correctness property: promotion preserves behaviour.

For random mini-C programs (seeded generation, hypothesis-driven), the
promoted program must print the same output, return the same value, and
leave the same final global state as the original — under the paper's
algorithm and both baselines, with every option combination.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.lucooper import LuCooperPipeline
from repro.baselines.mahlke import MahlkePipeline
from repro.frontend.lower import compile_source
from repro.profile.interp import run_module
from repro.promotion.driver import PromotionOptions
from repro.promotion.pipeline import PromotionPipeline

from tests.property.genprog import random_program

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def observe(module):
    result = run_module(module, max_steps=2_000_000)
    return result.output, result.return_value, result.globals_snapshot()


def check_promoter(seed, make_pipeline):
    source = random_program(seed)
    baseline = observe(compile_source(source))
    module = compile_source(source)
    result = make_pipeline().run(module)
    assert result.output_matches, source
    assert observe(module) == baseline, source
    return result


@SETTINGS
@given(st.integers(0, 10**9))
# Regression: a loop whose body breaks on the first iteration made the
# paper's profit formula claim a store removal that tail-store insertion
# immediately undid, net-adding one load per call (caught by the
# decision journal; fixed by defaulting count_tail_stores on).
@example(seed=261)
def test_sastry_ju_preserves_semantics(seed):
    result = check_promoter(seed, PromotionPipeline)
    # The profitability gate means guided promotion never adds dynamic
    # memory traffic on the profiled input: the bound is exact.
    assert result.dynamic_after.total <= result.dynamic_before.total


@SETTINGS
@given(st.integers(0, 10**9))
def test_profile_blind_preserves_semantics(seed):
    check_promoter(
        seed, lambda: PromotionPipeline(options=PromotionOptions(require_profit=False))
    )


@SETTINGS
@given(st.integers(0, 10**9))
def test_no_store_removal_preserves_semantics(seed):
    check_promoter(
        seed, lambda: PromotionPipeline(options=PromotionOptions(remove_stores=False))
    )


@SETTINGS
@given(st.integers(0, 10**9))
def test_whole_variable_mode_preserves_semantics(seed):
    check_promoter(
        seed, lambda: PromotionPipeline(options=PromotionOptions(per_web=False))
    )


@SETTINGS
@given(st.integers(0, 10**9))
def test_lucooper_preserves_semantics(seed):
    check_promoter(seed, LuCooperPipeline)


@SETTINGS
@given(st.integers(0, 10**9))
def test_mahlke_preserves_semantics(seed):
    check_promoter(seed, MahlkePipeline)


@SETTINGS
@given(st.integers(0, 10**9))
def test_generated_programs_are_valid(seed):
    # The generator itself: compiles, verifies, runs within budget.
    from repro.ir.verify import verify_module

    source = random_program(seed)
    module = compile_source(source)
    verify_module(module)
    output, ret, snapshot = observe(module)
    assert isinstance(ret, int)
