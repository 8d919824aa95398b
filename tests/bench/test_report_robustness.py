"""repro-report failure handling: perf-baseline validation (exit 2, one
line, names the path), resilience flag validation, and the degraded
exit code 3."""

import json

import pytest

import repro.bench.report as report
import repro.bench.timing as timing
from repro.bench.metrics import BenchmarkRow
from repro.bench.report import main
from repro.bench.timing import check_against_baseline


def fake_bench():
    return {
        "suite": ["go"],
        "cpu_count": 4,
        "arms": {},
        "speedup": {"serial_vs_baseline": 1.5},
        "outputs_identical": True,
    }


@pytest.fixture
def stub_timing(monkeypatch):
    monkeypatch.setattr(timing, "time_suite", lambda **kwargs: fake_bench())


def run_timing_against(tmp_path, baseline_path):
    return main(
        [
            "--timing",
            str(tmp_path / "bench.json"),
            "--perf-baseline",
            str(baseline_path),
        ]
    )


def test_missing_baseline_exits_2_naming_the_path(tmp_path, capsys, stub_timing):
    missing = tmp_path / "nope.json"
    code = run_timing_against(tmp_path, missing)
    captured = capsys.readouterr()
    assert code == 2
    (line,) = [
        ln for ln in captured.err.splitlines() if "perf baseline" in ln
    ]
    assert line.startswith("repro-report: cannot read perf baseline")
    assert str(missing) in line


def test_malformed_json_baseline_exits_2(tmp_path, capsys, stub_timing):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_timing_against(tmp_path, bad)
    captured = capsys.readouterr()
    assert code == 2
    assert f"cannot read perf baseline {bad}" in captured.err


def test_non_object_json_baseline_exits_2(tmp_path, capsys, stub_timing):
    wrong_shape = tmp_path / "list.json"
    wrong_shape.write_text("[1, 2, 3]")
    code = run_timing_against(tmp_path, wrong_shape)
    captured = capsys.readouterr()
    assert code == 2
    assert f"malformed perf baseline {wrong_shape}" in captured.err
    assert "expected a JSON object, got list" in captured.err


def test_junk_speedup_values_do_not_crash_the_gate():
    baseline = {"speedup": {"serial_vs_baseline": "fast", "extra": None}}
    assert check_against_baseline(fake_bench(), baseline) == []
    assert check_against_baseline(fake_bench(), {"speedup": [1, 2]}) == []


def test_regressed_speedup_still_fails_the_gate():
    baseline = {"speedup": {"serial_vs_baseline": 4.0}}
    failures = check_against_baseline(fake_bench(), baseline)
    assert len(failures) == 1
    assert "serial_vs_baseline regressed" in failures[0]


def test_good_baseline_passes(tmp_path, capsys, stub_timing):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"speedup": {"serial_vs_baseline": 1.4}}))
    code = run_timing_against(tmp_path, good)
    captured = capsys.readouterr()
    assert code == 0
    assert "perf gate passed" in captured.err


def test_chaos_flags_are_incompatible_with_timing(tmp_path, capsys):
    code = main(
        [
            "--timing",
            str(tmp_path / "bench.json"),
            "--chaos",
            "crash=0.1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "incompatible with --timing" in captured.err


def test_chaos_flags_run_without_jobs(capsys, monkeypatch):
    seen = {}

    def measure(*args, **kwargs):
        seen.update(kwargs)
        return fake_row("go")

    monkeypatch.setattr(report, "measure_workload", measure)
    monkeypatch.setattr(report, "ORDER", ["go"])
    code = main(["--table", "2", "--chaos", "crash=0.1,seed=4"])
    captured = capsys.readouterr()
    assert code == 0
    assert seen["resilience"].chaos.seed == 4
    assert "0 function(s) quarantined" in captured.err


def test_bad_chaos_spec_exits_2(capsys):
    code = main(["--chaos", "hang=many"])
    captured = capsys.readouterr()
    assert code == 2
    assert "repro-report: --chaos:" in captured.err


def fake_row(name, quarantined=(), retries=0, degraded=False):
    return BenchmarkRow(
        name=name,
        promoter="sastry-ju",
        static_loads_before=10,
        static_loads_after=5,
        static_stores_before=8,
        static_stores_after=6,
        dynamic_loads_before=100,
        dynamic_loads_after=60,
        dynamic_stores_before=80,
        dynamic_stores_after=70,
        output_matches=True,
        quarantined=list(quarantined),
        retries=retries,
        degraded=degraded,
        diagnostics={"summary": "stub"},
    )


def test_degraded_workloads_exit_3_with_a_resilience_summary(
    tmp_path, capsys, monkeypatch
):
    rows = [fake_row("go", quarantined=["poison"], retries=2, degraded=True)]
    monkeypatch.setattr(
        report, "measure_workload", lambda *a, **k: rows[0]
    )
    monkeypatch.setattr(report, "ORDER", ["go"])
    diag_dir = tmp_path / "diags"
    code = main(
        [
            "--table",
            "2",
            "--chaos",
            "transient=0.5,seed=1",
            "--diagnostics-dir",
            str(diag_dir),
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert (
        "repro-report: resilience: 1 function(s) quarantined, 2 retries "
        "across 1/1 degraded workload(s); quarantined: poison" in captured.err
    )
    assert json.loads((diag_dir / "go.json").read_text()) == {"summary": "stub"}


def test_clean_resilient_run_exits_0(capsys, monkeypatch):
    monkeypatch.setattr(
        report, "measure_workload", lambda *a, **k: fake_row("go")
    )
    monkeypatch.setattr(report, "ORDER", ["go"])
    code = main(["--table", "2", "--timeout", "60"])
    captured = capsys.readouterr()
    assert code == 0
    assert "0 function(s) quarantined" in captured.err
