"""Per-function transactions in the pipeline: exceptions and verification
failures roll the affected function back and the rest of the module still
promotes."""

from repro.analysis.intervals import normalize_for_promotion
from repro.ir.parser import parse_module
from repro.memory.aliasing import AliasModel
from repro.observability import NULL_OBSERVABILITY
from repro.profile.estimator import estimate_profile
from repro.profile.interp import run_module
from repro.promotion.driver import PromotionOptions, promote_function
from repro.promotion.pipeline import PromotionPipeline, promote_transaction
from repro.ssa.construct import construct_ssa
from repro.robustness import FaultInjector

TEXT = """
module m
global @a = 0
global @b = 0

func @main() {
entry:
  %x = call @good()
  %y = call @bad()
  %s = add %x, %y
  print %s
  ret %s
}

func @good() {
entry:
  jmp h
h:
  %i = phi [entry: 0, body: %i2]
  %c = lt %i, 5
  br %c, body, out
body:
  %t = ld @a
  %t2 = add %t, 1
  st @a, %t2
  %i2 = add %i, 1
  jmp h
out:
  %r = ld @a
  ret %r
}

func @bad() {
entry:
  jmp h
h:
  %i = phi [entry: 0, body: %i2]
  %c = lt %i, 7
  br %c, body, out
body:
  %t = ld @b
  %t2 = add %t, 1
  st @b, %t2
  %i2 = add %i, 1
  jmp h
out:
  %r = ld @b
  ret %r
}
"""


class ExplodingAliasModel(AliasModel):
    """Raises while analysing the function named ``bad``."""

    def tracked_vars(self, function):
        if function.name == "bad":
            raise RuntimeError("alias oracle exploded")
        return super().tracked_vars(function)


def test_exception_rolls_back_one_function():
    baseline = run_module(parse_module(TEXT))
    module = parse_module(TEXT)

    result = PromotionPipeline(alias_model=ExplodingAliasModel).run(module)

    diags = result.diagnostics
    assert diags.rolled_back_functions == ["bad"]
    outcome = diags.outcomes["bad"]
    assert outcome.status == "rolled_back"
    assert outcome.stage == "memssa"
    assert outcome.error_type == "RuntimeError"
    assert outcome.reason == "alias oracle exploded"
    assert set(diags.promoted_functions) == {"main", "good"}

    # Rolled-back functions contribute nothing to the promotion stats.
    assert result.stats["bad"].webs_promoted == 0

    assert result.output_matches
    after = run_module(module)
    assert after.output == baseline.output
    assert after.return_value == baseline.return_value
    assert after.globals_snapshot() == baseline.globals_snapshot()


def test_verification_failure_rolls_back(monkeypatch):
    import repro.promotion.pipeline as pipeline_module

    real_promote = pipeline_module.promote_function
    injector = FaultInjector()

    def sabotaged(function, mssa, profile, tree, options):
        stats = real_promote(function, mssa, profile, tree, options)
        if function.name == "bad":
            injector.apply("dangling_phi_incoming", function)
        return stats

    monkeypatch.setattr(pipeline_module, "promote_function", sabotaged)

    baseline = run_module(parse_module(TEXT))
    module = parse_module(TEXT)
    result = PromotionPipeline().run(module)

    diags = result.diagnostics
    assert diags.rolled_back_functions == ["bad"]
    outcome = diags.outcomes["bad"]
    assert outcome.error_type == "VerificationError"
    assert outcome.stage in ("cleanup", "verify")
    assert set(diags.promoted_functions) == {"main", "good"}

    assert result.output_matches
    after = run_module(module)
    assert after.output == baseline.output
    assert after.globals_snapshot() == baseline.globals_snapshot()


def test_promotion_error_names_web_and_interval(monkeypatch):
    import repro.promotion.driver as driver_module
    from repro.promotion import PromotionError

    real_plan = driver_module.plan_web

    def sabotaged(web, profile, domtree, count_tail_stores=False):
        if web.var.name == "b":
            raise KeyError("profit table corrupted")
        return real_plan(web, profile, domtree, count_tail_stores=count_tail_stores)

    monkeypatch.setattr(driver_module, "plan_web", sabotaged)

    module = parse_module(TEXT)
    result = PromotionPipeline().run(module)

    outcome = result.diagnostics.outcomes["bad"]
    assert outcome.status == "rolled_back"
    assert outcome.stage == "promote"
    assert outcome.error_type == "PromotionError"
    # The wrapped error pinpoints the web and interval, not just the
    # function.
    assert "@b" in outcome.reason
    assert "bad" in outcome.reason
    assert result.output_matches

    # The transaction hands back the structured error it rolled back.
    module = parse_module(TEXT)
    function = module.get_function("main")
    construct_ssa(function)
    tree = normalize_for_promotion(function)
    _, stats, stage, error = promote_transaction(
        function,
        AliasModel.conservative(module),
        estimate_profile(module),
        tree,
        promote_function,
        PromotionOptions(),
        NULL_OBSERVABILITY.tracer,
    )
    assert stats is None and stage == "promote"
    assert isinstance(error, PromotionError)
    # Calls are may-defs of @b under the conservative model, so main
    # also carries a @b web.
    assert error.function == "main"
    assert error.var == "b"
    assert error.interval is not None
    assert isinstance(error.__cause__, KeyError)


def test_prepare_failure_skips_function(monkeypatch):
    import repro.promotion.pipeline as pipeline_module

    real_construct = pipeline_module.construct_ssa

    def sabotaged(function):
        if function.name == "bad":
            raise ValueError("mem2reg refused")
        return real_construct(function)

    monkeypatch.setattr(pipeline_module, "construct_ssa", sabotaged)

    baseline = run_module(parse_module(TEXT))
    module = parse_module(TEXT)
    result = PromotionPipeline().run(module)

    diags = result.diagnostics
    assert diags.skipped_functions == ["bad"]
    outcome = diags.outcomes["bad"]
    assert outcome.status == "skipped"
    assert outcome.stage == "prepare"
    assert outcome.error_type == "ValueError"
    # Skipped functions never reach promotion at all.
    assert "bad" not in result.stats
    assert set(diags.promoted_functions) == {"main", "good"}

    assert result.output_matches
    after = run_module(module)
    assert after.output == baseline.output
    assert after.globals_snapshot() == baseline.globals_snapshot()


def test_clean_run_has_clean_diagnostics():
    module = parse_module(TEXT)
    result = PromotionPipeline().run(module)
    diags = result.diagnostics
    assert diags.clean
    assert set(diags.promoted_functions) == {"main", "good", "bad"}
    assert diags.bisection is None
    assert "3 promoted, 0 rolled back, 0 skipped" in result.report()
