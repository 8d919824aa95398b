"""Supervised-worker integration: crash recovery, quarantine isolation,
hang deadlines, transient retry, and chaos-off equivalence.

These tests drive the full pipeline (``PromotionPipeline(resilience=...)``)
rather than the supervisor alone so the claims they make — survivors
byte-identical to a clean serial run, program behaviour preserved — are
the ones the CLI's exit-code contract rests on.
"""

import time

import pytest

from repro.frontend.lower import compile_source
from repro.ir.printer import print_function, print_module
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ChaosConfig, ResilienceOptions
from repro.robustness.diagnostics import FunctionOutcome
from repro.robustness.supervise import WorkerReply

#: Three promotable functions so one can be poisoned while two survive.
SOURCE = """
int acc = 0;
int bump(int k) {
    for (int i = 0; i < 6; i++) acc += k;
    return acc;
}
int drain(int k) {
    for (int i = 0; i < 4; i++) acc -= k;
    return acc;
}
int main() {
    int r = bump(3);
    r = drain(1);
    print(r);
    return r;
}
"""


def run_clean_serial():
    module = compile_source(SOURCE)
    result = PromotionPipeline().run(module)
    return module, result


def run_resilient(resilience):
    module = compile_source(SOURCE)
    result = PromotionPipeline(resilience=resilience).run(module)
    return module, result


def function_texts(module):
    return {name: print_function(fn) for name, fn in module.functions.items()}


def test_worker_crash_quarantines_only_the_poison_function():
    clean_module, clean_result = run_clean_serial()
    chaos = ChaosConfig(crash=1.0, functions={"bump"}, seed=1)
    module, result = run_resilient(
        ResilienceOptions(retries=2, chaos=chaos, backoff_base_s=0.01)
    )
    diags = result.diagnostics

    # Only the poisoned function is quarantined; the survivors promote.
    assert diags.quarantined_functions == ["bump"]
    assert sorted(diags.promoted_functions) == ["drain", "main"]
    assert diags.degraded

    # The worker was replaced and the crash charged to the culprit only:
    # every one of bump's attempts is a worker-crash, and the survivors
    # completed without burning extra attempts.
    assert diags.resilience["worker_crashes"] == 3
    assert diags.resilience["quarantined"] == ["bump"]
    assert diags.resilience["pool_rebuilds"] >= 1
    history = diags.attempt_histories["bump"]
    assert history["attempts"] == 3
    assert {r["outcome"] for r in history["records"]} == {"worker-crash"}
    for survivor in ("drain", "main"):
        survivor_history = diags.attempt_histories[survivor]
        assert survivor_history["records"][-1]["outcome"] == "promoted"

    # Survivors are byte-identical to the clean serial run, and the
    # quarantined function kept sound (pre-promotion) IR: behaviour and
    # tables are preserved.
    clean_texts = function_texts(clean_module)
    chaos_texts = function_texts(module)
    for survivor in ("drain", "main"):
        assert chaos_texts[survivor] == clean_texts[survivor]
    assert result.output_matches
    assert result.dynamic_before.loads == clean_result.dynamic_before.loads


def test_hang_watchdog_kills_and_quarantines_within_the_deadline_budget():
    chaos = ChaosConfig(hang=1.0, functions={"bump"}, seed=3, hang_seconds=30.0)
    resilience = ResilienceOptions(
        retries=1, timeout_s=0.5, chaos=chaos, backoff_base_s=0.01
    )
    started = time.monotonic()
    module, result = run_resilient(resilience)
    elapsed = time.monotonic() - started
    diags = result.diagnostics

    assert diags.quarantined_functions == ["bump"]
    assert diags.resilience["timeouts"] == 2  # retries=1 -> 2 attempts
    history = diags.attempt_histories["bump"]
    assert [r["outcome"] for r in history["records"]] == ["timeout", "timeout"]
    assert "deadline" in history["records"][0]["reason"]
    # The watchdog killed the sleeping workers: total wall clock is far
    # under the 2 x 30s the injected hangs would have cost, and within
    # a generous multiple of deadline x attempts.
    assert elapsed < 30.0
    assert result.output_matches


def test_transient_faults_are_retried_to_success():
    # seed=11: bump's transient chaos fires on attempt 1 but not 2, so
    # one backoff retry recovers the promotion.
    chaos = ChaosConfig(transient=0.6, functions={"bump"}, seed=11)
    assert chaos.plan("bump", 1) == "transient"
    assert chaos.plan("bump", 2) is None
    module, result = run_resilient(
        ResilienceOptions(retries=2, chaos=chaos, backoff_base_s=0.01)
    )
    diags = result.diagnostics

    assert sorted(diags.promoted_functions) == ["bump", "drain", "main"]
    assert diags.quarantined_functions == []
    assert diags.resilience["transient_faults"] == 1
    assert diags.resilience["retries"] == 1
    assert diags.degraded  # retried, so the run reports degraded
    history = diags.attempt_histories["bump"]
    assert [r["outcome"] for r in history["records"]] == ["transient", "promoted"]
    assert history["records"][0]["backoff_s"] > 0
    assert result.output_matches


def test_chaos_off_resilient_run_matches_serial_exactly():
    clean_module, clean_result = run_clean_serial()
    module, result = run_resilient(ResilienceOptions(retries=2, timeout_s=30.0))
    diags = result.diagnostics

    assert not diags.degraded
    assert diags.resilience["retries"] == 0
    assert diags.resilience["quarantined"] == []
    assert print_module(module) == print_module(clean_module)
    assert sorted(diags.promoted_functions) == sorted(
        clean_result.diagnostics.promoted_functions
    )
    # Every function promoted first try.
    for history in diags.attempt_histories.values():
        assert history["attempts"] == 1
    assert result.output_matches


def test_chaos_runs_are_reproducible_from_their_seed():
    chaos = dict(crash=0.3, transient=0.3, seed=77)
    results = []
    for _ in range(2):
        _, result = run_resilient(
            ResilienceOptions(retries=2, chaos=ChaosConfig(**chaos), backoff_base_s=0.01)
        )
        diags = result.diagnostics
        results.append(
            (
                sorted(diags.quarantined_functions),
                {
                    name: history["attempts"]
                    for name, history in diags.attempt_histories.items()
                },
            )
        )
    assert results[0] == results[1]


def test_resilience_options_validation():
    with pytest.raises(ValueError, match="timeout_s must be > 0"):
        ResilienceOptions(timeout_s=0)
    with pytest.raises(ValueError, match="retries must be >= 0"):
        ResilienceOptions(retries=-1)
    options = ResilienceOptions(retries=4, seed=5)
    assert options.max_attempts == 5
    data = options.as_dict()
    assert data["retries"] == 4
    assert data["seed"] == 5
    assert data["chaos"] is None
    assert data["backoff"]["max_attempts"] == 5


def test_worker_reply_defaults():
    reply = WorkerReply("f", FunctionOutcome.PROMOTED)
    assert reply.name == "f"
    assert reply.status == "promoted"
    assert reply.stage is None
    assert reply.payload is None
    assert reply.duration_ms == 0.0
