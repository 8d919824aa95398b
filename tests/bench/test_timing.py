"""Timing harness: arm fingerprints, BENCH structure, and the perf gate."""

import json

from repro.bench.timing import (
    ARMS,
    GATE_RATIO,
    check_against_baseline,
    run_workload_arm,
    time_suite,
    write_bench,
)


def test_arm_fingerprints_agree_on_one_workload():
    rows = {arm: run_workload_arm("compress", arm) for arm in ARMS}
    prints = {row["fingerprint"] for row in rows.values()}
    assert len(prints) == 1


def test_time_suite_structure_and_identity():
    bench = time_suite(workloads=["compress", "vortex"])
    assert bench["suite"] == ["compress", "vortex"]
    assert bench["outputs_identical"] is True
    assert set(bench["arms"]) == set(ARMS)
    for arm in ARMS:
        entry = bench["arms"][arm]
        assert set(entry["workloads"]) == {"compress", "vortex"}
        assert entry["total_seconds"] > 0
    assert set(bench["speedup"]) == {"serial_vs_baseline"}
    assert bench["speedup"]["serial_vs_baseline"] > 0


def test_perf_gate_passes_against_itself():
    bench = {
        "outputs_identical": True,
        "speedup": {"serial_vs_baseline": 2.0},
    }
    assert check_against_baseline(bench, bench) == []


def test_perf_gate_tolerates_bounded_regression():
    baseline = {"speedup": {"serial_vs_baseline": 2.0}}
    bench = {
        "outputs_identical": True,
        # Just above the gate: 2.0 * GATE_RATIO.
        "speedup": {"serial_vs_baseline": 2.0 * GATE_RATIO + 0.01},
    }
    assert check_against_baseline(bench, baseline) == []


def test_perf_gate_fails_on_regression():
    baseline = {"speedup": {"serial_vs_baseline": 2.0}}
    bench = {"outputs_identical": True, "speedup": {"serial_vs_baseline": 1.0}}
    failures = check_against_baseline(bench, baseline)
    assert len(failures) == 1
    assert "serial_vs_baseline regressed" in failures[0]


def test_perf_gate_fails_on_divergent_outputs():
    baseline = {"speedup": {}}
    bench = {"outputs_identical": False, "speedup": {}}
    failures = check_against_baseline(bench, baseline)
    assert len(failures) == 1
    assert "different outputs" in failures[0]


def test_perf_gate_ignores_keys_missing_from_measurement():
    baseline = {"speedup": {"serial_vs_baseline": 2.0, "exotic": 9.0}}
    bench = {"outputs_identical": True, "speedup": {"serial_vs_baseline": 2.0}}
    assert check_against_baseline(bench, baseline) == []


def test_write_bench_round_trips(tmp_path):
    bench = {"speedup": {"serial_vs_baseline": 2.0}, "outputs_identical": True}
    path = tmp_path / "BENCH.json"
    write_bench(str(path), bench)
    assert json.loads(path.read_text()) == bench
