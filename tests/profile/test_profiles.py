import pytest

from repro.bench.metrics import BenchmarkRow
from repro.bench.tables import format_table1, format_table2
from repro.bench.timing import _fingerprint
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.profile.estimator import estimate_profile
from repro.profile.interp import run_module
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


def _promoted_outputs(name, compiled, resilience):
    workload = WORKLOADS[name]
    module = compile_source(workload.source, name)
    pipeline = PromotionPipeline(
        entry=workload.entry,
        args=list(workload.args),
        compiled_interpreter=compiled,
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
def test_profile_order_does_not_reach_the_outputs(name, supervised):
    # The tiered engine records source-tier block counts after the
    # classic ones, so its profile iterates in a different order; every
    # consumer keys by block, so IR, tables and diagnostics must not move.
    resilience = ResilienceOptions() if supervised else None
    classic = _promoted_outputs(name, False, resilience)
    assert _promoted_outputs(name, True, resilience) == classic
