"""Chaos seeds replay: worker and wire chaos keep their exact draws.

Every recorded chaos run replays from its seed only while the draw keys
stay ``"{seed}:{name}:{attempt}:{mode}"`` (worker) and
``"{seed}:req{request}:{mode}"`` (wire).  The expected plans below were
computed once and are pinned here; a change to either key string, the
hash, or the first-mode-wins order breaks this table.

The retry side is pinned the same way: the backoff jitter keyed on
``"{seed}:{name}:{attempt}"`` and the quarantine reason text a poisoned
function leaves in the diagnostics.
"""

import re

import pytest

from repro.frontend.lower import compile_source
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ChaosConfig, ResilienceOptions, RetryPolicy
from repro.service.chaos import ServiceChaosConfig
from tests.robustness.test_executor import SOURCE

WORKER = dict(crash=0.3, hang=0.3, transient=0.3)
WIRE = dict(drop=0.25, slow=0.25, disconnect=0.25, malformed=0.25)


@pytest.mark.parametrize(
    "seed,name,attempt,expected",
    [
        (1234, "lookup", 1, "transient"),
        (1234, "lookup", 2, "hang"),
        (1234, "next_byte", 1, "crash"),
        (2, "step", 1, None),
    ],
)
def test_worker_chaos_plans_replay(seed, name, attempt, expected):
    assert ChaosConfig(seed=seed, **WORKER).plan(name, attempt) == expected


@pytest.mark.parametrize(
    "seed,index,expected",
    [
        (2, 0, "drop"),
        (1, 1, "slow"),
        (26, 1, "disconnect"),
        (26, 0, "malformed"),
        (26, 2, None),
    ],
)
def test_wire_chaos_plans_replay(seed, index, expected):
    assert ServiceChaosConfig(seed=seed, **WIRE).plan(index) == expected


@pytest.mark.parametrize(
    "seed,name,attempt,expected",
    [
        (0, "bump", 1, 0.036944319182854034),
        (0, "bump", 2, 0.05769341412591941),
        (0, "bump", 3, 0.18694299342450765),
        (0, "next_byte", 1, 0.04986278211596509),
        (0, "next_byte", 2, 0.09234789966497524),
        (0, "next_byte", 3, 0.11742457713862241),
        (1234, "bump", 1, 0.04883554795667912),
        (1234, "bump", 2, 0.0568230186827448),
        (1234, "bump", 3, 0.15624867700103331),
        (1234, "next_byte", 1, 0.04125806654687339),
        (1234, "next_byte", 2, 0.06733791702157858),
        (1234, "next_byte", 3, 0.10734002299256357),
    ],
)
def test_backoff_schedule_replays(seed, name, attempt, expected):
    assert RetryPolicy(seed=seed).backoff_s(name, attempt) == expected


def test_poison_quarantine_reason_replays():
    chaos = ChaosConfig(crash=1.0, functions={"bump"}, seed=1)
    resilience = ResilienceOptions(retries=2, chaos=chaos, backoff_base_s=0.01)
    result = PromotionPipeline(resilience=resilience).run(compile_source(SOURCE))
    outcome = result.diagnostics.outcomes["bump"]
    assert outcome.status == "quarantined"
    assert outcome.attempts == 3
    assert outcome.error_type == "WorkerCrashError"
    assert outcome.stage is None
    # Only the dead worker's pid varies from run to run.
    assert re.fullmatch(
        r"3 failed attempt\(s\), last: worker-crash \(WorkerCrashError: "
        r"worker pid \d+ died \(exit code 113\)\)",
        outcome.reason,
    )
    backoffs = [
        record["backoff_s"]
        for record in result.diagnostics.attempt_histories["bump"]["records"]
    ]
    assert backoffs == [0.007389, 0.011539, 0.0]
