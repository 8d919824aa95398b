"""Chaos-determinism property: injected transient faults never change
what a generated program computes — only quarantine membership and
attempt counts may differ from a clean run.

Each example costs several worker-pool spins, so the example budget is
small; the programs and the chaos schedule are both seeded, keeping any
failure exactly reproducible.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.lower import compile_source
from repro.profile.interp import run_module
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ChaosConfig, ResilienceOptions

from tests.property.genprog import random_program

SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def observe(module):
    result = run_module(module, max_steps=2_000_000)
    return result.output, result.return_value, result.globals_snapshot()


@SETTINGS
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_transient_chaos_never_changes_program_behaviour(seed, chaos_seed):
    source = random_program(seed)
    baseline = observe(compile_source(source))

    module = compile_source(source)
    resilience = ResilienceOptions(
        retries=1,
        backoff_base_s=0.001,
        backoff_max_s=0.01,
        chaos=ChaosConfig(transient=0.3, seed=chaos_seed),
    )
    result = PromotionPipeline(resilience=resilience).run(module)
    diags = result.diagnostics

    # The one inviolable property: chaos may cost promotions (quarantine)
    # but never correctness.
    assert result.output_matches, source
    assert observe(module) == baseline, source

    # Every function is accounted for — promoted, rolled back, skipped,
    # or quarantined; nothing is silently dropped.
    accounted = (
        set(diags.promoted_functions)
        | set(diags.rolled_back_functions)
        | set(diags.skipped_functions)
        | set(diags.quarantined_functions)
    )
    assert accounted == set(module.functions), source

    # Quarantined functions burned their whole attempt budget; promoted
    # ones have a promoted final attempt.
    for name in diags.quarantined_functions:
        assert diags.attempt_histories[name]["attempts"] == resilience.max_attempts
    for name in diags.promoted_functions:
        records = diags.attempt_histories[name]["records"]
        assert records[-1]["outcome"] == "promoted"
