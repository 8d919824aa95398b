"""Supervised promotion must be bit-identical to in-process promotion.

With chaos off, a run whose phases 3+4 go through the supervised worker
process (``resilience=ResilienceOptions()``) must reproduce the
in-process run exactly: same transformed IR, same Table 1/2 counts, same
per-function statistics, and the same diagnostics JSON byte for byte —
after zeroing wall-clock durations and dropping the supervisor's own
bookkeeping (``resilience``, ``attempt_histories`` and the per-function
``attempts`` count), which are not outputs.
"""

import functools
import json

import pytest

from repro.baselines import lu_cooper_promote, mahlke_promote
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ResilienceOptions


def _run(name, resilience=None, promoter=None):
    workload = WORKLOADS[name]
    module = compile_source(workload.source, name)
    pipeline = PromotionPipeline(
        promoter=promoter,
        entry=workload.entry,
        args=list(workload.args),
        resilience=resilience,
    )
    result = pipeline.run(module)
    # The supervised path really ran (a fallback leaves no counters).
    assert (result.diagnostics.resilience is not None) == (resilience is not None)
    diagnostics = result.diagnostics.as_dict()
    del diagnostics["resilience"], diagnostics["attempt_histories"]
    for outcome in diagnostics["functions"]:
        outcome["duration_ms"] = 0.0
        outcome["attempts"] = 0
    return {
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
        "stats": {fn: s.as_dict() for fn, s in sorted(result.stats.items())},
        "output_matches": result.output_matches,
        "diagnostics_json": json.dumps(diagnostics, sort_keys=True),
    }


@pytest.mark.parametrize("name", ORDER)
def test_supervised_matches_in_process(name, promoter=None):
    in_process = _run(name, promoter=promoter)
    supervised = _run(name, resilience=ResilienceOptions(), promoter=promoter)
    assert supervised["ir"] == in_process["ir"]
    assert supervised["static"] == in_process["static"]
    assert supervised["dynamic"] == in_process["dynamic"]
    assert supervised["stats"] == in_process["stats"]
    assert supervised["output_matches"] is True
    assert supervised["diagnostics_json"] == in_process["diagnostics_json"]


@pytest.mark.parametrize(
    "promoter",
    [
        lu_cooper_promote,
        # A bound policy knob travels to the worker with the promoter.
        functools.partial(mahlke_promote, hot_fraction=0.3),
    ],
    ids=["lucooper", "mahlke-0.3"],
)
@pytest.mark.parametrize("name", ORDER)
def test_supervised_baseline_matches_in_process(name, promoter):
    test_supervised_matches_in_process(name, promoter)
