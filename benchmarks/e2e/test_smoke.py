"""Smoke test for the end-to-end benchmark: every workload with a tiny op
count, the metric names and units against ``BENCHMARK.json``, the output
checks, and the trace guard.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from benchmarks.e2e import hostclock, layers, run, workloads
from repro.promotion import pipeline as pipeline_module

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def as_units(metrics):
    return {name: unit for name, (value, unit) in metrics.items()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_reports_every_end_to_end_metric(name, spec):
    m = workloads.run(name, seed=0, seconds=0, ops=3)
    assert len(m.ops) == 3
    assert m.failed == 0, m.failures
    metrics = workloads.end_to_end(m)
    assert as_units(metrics) == units(spec["end_to_end"])
    assert all(value > 0 for value, unit in metrics.values())
    assert len(m.setup_s) == workloads.SETUP_REPS


@pytest.mark.parametrize("name", ["gen-cold", "serve-mix"])
def test_traced_run_reports_every_per_layer_metric(name, spec):
    m = workloads.run(name, seed=0, seconds=0, trace=True, ops=4)
    assert m.failed == 0, m.failures
    metrics = layers.metrics(m.layers)
    assert as_units(metrics) == units(spec["per_layer"])
    assert metrics["tracing.coverage_pct"][0] >= 100 * layers.MIN_COVERAGE


def test_corrupted_expected_output_fails_those_ops():
    expected = copy.deepcopy(workloads.load_expected())
    expected["compress"]["output"][0][0] += 1
    m = workloads.run("paper-suite", seed=0, seconds=0, ops=len(expected), expected=expected)
    assert {op.key for op in m.ops} == set(expected)
    assert m.failed == 1
    assert m.failures[0].startswith("compress:")
    assert workloads.reported(m)["fail_share"][0] == pytest.approx(1 / len(expected))


def test_expected_file_matches_the_code():
    assert workloads.load_expected() == workloads.expected_paper()


def test_default_window_matches_benchmark_json(spec):
    assert run.RUN_SECONDS == spec["run_seconds"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_install_names_the_layer_of_a_missing_stage(monkeypatch):
    monkeypatch.delattr(pipeline_module, "construct_ssa")
    tracer = layers.LayerTracer()
    with pytest.raises(layers.TraceGuardError, match="layer ssa"):
        tracer.install()
    # The stages patched before the failure are restored.
    assert not hasattr(pipeline_module.snapshot_function, "__wrapped__")


def test_guard_names_silent_layers_and_low_coverage():
    m = workloads.run("gen-cold", seed=0, seconds=0, trace=True, ops=2)
    summary = copy.deepcopy(m.layers)
    del summary["calls"]["build_memory_ssa"]
    with pytest.raises(layers.TraceGuardError, match=r"memory \(build_memory_ssa\)"):
        layers.check(summary)
    summary = copy.deepcopy(m.layers)
    summary["self_s"]["pipeline"] = summary["wall_s"]["PromotionPipeline.run"] * 0.2
    with pytest.raises(layers.TraceGuardError, match="layer pipeline"):
        layers.check(summary)


def test_reference_seconds_divide_wall_time_by_the_slowdown_in_force():
    ref = hostclock.REFERENCE_S
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, ref)]
    assert hostclock.reference_seconds(samples, 0.5, 2.5) == pytest.approx(1.5)
    assert hostclock.reference_seconds(samples, -1.0, 0.0) == pytest.approx(1.0)
    assert hostclock.reference_seconds(samples, 1.2, 1.7) == pytest.approx(0.25)
    assert hostclock.reference_seconds(samples, 3.0, 3.0) == 0.0
