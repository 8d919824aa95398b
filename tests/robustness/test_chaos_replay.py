"""Chaos seeds replay: worker and wire chaos keep their exact draws.

Every recorded chaos run replays from its seed only while the draw keys
stay ``"{seed}:{name}:{attempt}:{mode}"`` (worker) and
``"{seed}:req{request}:{mode}"`` (wire).  The expected plans below were
computed once and are pinned here; a change to either key string, the
hash, or the first-mode-wins order breaks this table.
"""

import pytest

from repro.robustness import ChaosConfig
from repro.service.chaos import ServiceChaosConfig

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
