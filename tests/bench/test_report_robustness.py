"""repro-report failure handling: resilience flag validation and the
degraded exit code 3."""

import json

import repro.bench.report as report
from repro.bench.metrics import BenchmarkRow
from repro.bench.report import main


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
