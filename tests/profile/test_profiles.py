import functools
import hashlib
import json

import pytest

import repro.promotion.pipeline
from repro.bench.metrics import BenchmarkRow
from repro.bench.tables import format_table1, format_table2
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.profile.estimator import estimate_profile
from repro.profile.interp import Interpreter, run_module
from repro.profile.profiles import ProfileData
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness.supervise import ResilienceOptions

from tests.support import nested_loops, simple_loop


def test_profile_from_execution():
    module, func = simple_loop(trip_count=4)
    result = run_module(module, entry="loop")
    profile = ProfileData.from_execution(result)
    assert profile.freq(func.find_block("body")) == 4
    assert profile.freq(func.find_block("header")) == 5
    assert profile.freq_of(func.find_block("body").instructions[0]) == 4


def test_unknown_block_is_zero():
    module, func = simple_loop()
    profile = ProfileData()
    assert profile.freq(func.find_block("body")) == 0


def test_set_and_scale():
    module, func = simple_loop()
    profile = ProfileData()
    body = func.find_block("body")
    profile.set_freq(body, 100)
    assert profile.scale(0.5).freq(body) == 50


def test_total_and_covered():
    module, func = simple_loop(trip_count=2)
    result = run_module(module, entry="loop")
    profile = ProfileData.from_execution(result)
    assert profile.total(func.blocks) == 1 + 3 + 2 + 1
    assert profile.covered(module) == 4


def test_estimator_orders_by_loop_depth():
    module, func = nested_loops()
    profile = estimate_profile(module)
    entry = profile.freq(func.find_block("entry"))
    outer = profile.freq(func.find_block("olatch"))
    inner = profile.freq(func.find_block("ibody"))
    assert entry < outer < inner


def test_estimator_covers_all_blocks():
    module, func = nested_loops()
    profile = estimate_profile(module)
    for block in func.blocks:
        assert profile.freq(block) >= 1


def _fingerprint(module, result) -> str:
    """Hash of every observable output of one workload's promotion."""
    diagnostics = json.loads(result.diagnostics.to_json())  # a copy to edit
    for outcome in diagnostics["functions"]:
        outcome["duration_ms"] = 0.0  # timing is not an output
    for history in diagnostics["attempt_histories"].values():
        for record in history["records"]:
            record["duration_ms"] = 0.0
    doc = {
        "ir": print_module(module),
        "static": [
            result.static_before.loads,
            result.static_before.stores,
            result.static_after.loads,
            result.static_after.stores,
        ],
        "dynamic": [
            result.dynamic_before.loads,
            result.dynamic_before.stores,
            result.dynamic_after.loads,
            result.dynamic_after.stores,
        ],
        "stats": {name: s.as_dict() for name, s in sorted(result.stats.items())},
        "output_matches": result.output_matches,
        "diagnostics": diagnostics,
    }
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _promoted_outputs(name, resilience):
    workload = WORKLOADS[name]
    module = compile_source(workload.source, name)
    pipeline = PromotionPipeline(
        entry=workload.entry,
        args=list(workload.args),
        resilience=resilience,
    )
    result = pipeline.run(module)
    row = BenchmarkRow(
        name=name,
        promoter="sastry-ju",
        static_loads_before=result.static_before.loads,
        static_loads_after=result.static_after.loads,
        static_stores_before=result.static_before.stores,
        static_stores_after=result.static_after.stores,
        dynamic_loads_before=result.dynamic_before.loads,
        dynamic_loads_after=result.dynamic_after.loads,
        dynamic_stores_before=result.dynamic_before.stores,
        dynamic_stores_after=result.dynamic_after.stores,
        output_matches=result.output_matches,
    )
    return (
        print_module(module),
        format_table1([row]),
        format_table2([row]),
        _fingerprint(module, result),
    )


@pytest.mark.parametrize("supervised", [False, True])
@pytest.mark.parametrize("name", ORDER)
def test_profile_order_does_not_reach_the_outputs(name, supervised, monkeypatch):
    # The tiered engine records source-tier block counts after the
    # classic ones, so its profile iterates in a different order; every
    # consumer keys by block, so IR, tables and diagnostics must not move.
    # The classic loop is the reference: phases 2 and 5 run on it first.
    resilience = ResilienceOptions() if supervised else None
    with monkeypatch.context() as classic_only:
        classic_only.setattr(
            repro.promotion.pipeline,
            "Interpreter",
            functools.partial(Interpreter, compiled=False),
        )
        classic = _promoted_outputs(name, resilience)
    assert _promoted_outputs(name, resilience) == classic
