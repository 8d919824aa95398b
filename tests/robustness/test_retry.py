"""Retry policy units: transience split, backoff shape, seeded jitter."""

import pytest

from repro.robustness import (
    AttemptHistory,
    AttemptRecord,
    RetryPolicy,
    TRANSIENT_ERROR_TYPES,
)


def test_transient_split_matches_the_design():
    policy = RetryPolicy()
    # Worker-infrastructure failures are retried...
    for name in ("TransientFaultError", "BrokenPipeError", "TimeoutError"):
        assert policy.is_transient(name)
    # ...deterministic promotion failures are not: rerunning
    # deterministic code can only reproduce them.
    for name in ("VerificationError", "AssertionError", "KeyError", None):
        assert not policy.is_transient(name)
    assert "EOFError" in TRANSIENT_ERROR_TYPES


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(backoff_base_s=0.1, backoff_max_s=0.35, seed=7)
    delays = [policy.backoff_s("f", attempt) for attempt in (1, 2, 3, 4)]
    # Full (pre-jitter) delays are 0.1, 0.2, 0.35, 0.35; jitter scales
    # each into [0.5, 1.0) of that.
    for delay, full in zip(delays, (0.1, 0.2, 0.35, 0.35)):
        assert 0.5 * full <= delay < full


def test_backoff_is_deterministic_per_seed_and_decorrelated():
    a = RetryPolicy(seed=42)
    b = RetryPolicy(seed=42)
    c = RetryPolicy(seed=43)

    def delays(policy):
        return [policy.backoff_s("f", attempt) for attempt in (1, 2, 3)]

    assert delays(a) == delays(b)
    assert delays(a) != delays(c)
    # Different functions retry at different offsets under one seed.
    assert a.backoff_s("f", 1) != a.backoff_s("g", 1)


def test_policy_validation():
    with pytest.raises(ValueError, match="max_attempts must be >= 1"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="backoff delays must be >= 0"):
        RetryPolicy(backoff_base_s=-0.1)
    with pytest.raises(ValueError, match="attempt numbers start at 1"):
        RetryPolicy().backoff_s("f", 0)


def test_policy_as_dict_round_trips_the_knobs():
    policy = RetryPolicy(
        max_attempts=5, backoff_base_s=0.01, backoff_max_s=1.5, seed=9
    )
    assert policy.as_dict() == {
        "max_attempts": 5,
        "backoff_base_s": 0.01,
        "backoff_max_s": 1.5,
        "seed": 9,
    }


def test_attempt_history_accumulates_and_serializes():
    history = AttemptHistory("f")
    assert history.attempts == 0
    history.add(
        AttemptRecord(
            1,
            AttemptRecord.TRANSIENT,
            error_type="TransientFaultError",
            reason="injected",
            backoff_s=0.05,
        )
    )
    history.add(AttemptRecord(2, AttemptRecord.PROMOTED, duration_ms=3.5))
    assert history.attempts == 2
    data = history.as_dict()
    assert data["name"] == "f"
    assert data["attempts"] == 2
    assert [r["outcome"] for r in data["records"]] == ["transient", "promoted"]
    assert data["records"][0]["backoff_s"] == 0.05
