"""Exit-code precedence across the CLI tools: 2 > 1 > 3 > return value.

Driver errors (2) beat strict failures and behaviour divergences (1),
which beat degraded completions (3), which beat the program's own
return value — and
best-effort observability exports must never reshuffle that order: a
degraded run with an unwritable ``--trace-out`` still exits 3.
"""

import json

import pytest

import repro.bench.report as report
from repro.bench.metrics import BenchmarkRow
from repro.frontend.cli import main as minic_main

# A poison function: chaos with crash=1.0 scoped to `step` crashes every
# attempt, so the resilient executor quarantines it and the run
# completes degraded (behaviour preserved — quarantine is the
# pre-promotion IR).
POISON_PROGRAM = """
int acc = 0;
int step(int k) { acc += k; return acc; }
int main() {
    for (int i = 0; i < 25; i++) step(i);
    print(acc);
    return 5;
}
"""

CHAOS = "crash=1.0,only=step,seed=1"
DEGRADED_FLAGS = ["--promote", "--retries", "1", "--chaos", CHAOS]


@pytest.fixture
def poison_file(tmp_path):
    path = tmp_path / "poison.c"
    path.write_text(POISON_PROGRAM)
    return str(path)


# -- repro-minic -----------------------------------------------------------


@pytest.mark.parametrize(
    "flags,expected",
    [
        pytest.param([], 5, id="plain-run-returns-value"),
        pytest.param(["--promote"], 5, id="clean-promote-returns-value"),
        pytest.param(DEGRADED_FLAGS, 3, id="degraded-beats-return-value"),
        pytest.param(
            DEGRADED_FLAGS + ["--strict"], 1, id="strict-beats-degraded"
        ),
        pytest.param(
            DEGRADED_FLAGS + ["--timeout", "0", "--strict"],
            2,
            id="driver-error-beats-strict",
        ),
    ],
)
def test_minic_precedence(poison_file, capsys, flags, expected):
    code = minic_main([poison_file] + flags)
    captured = capsys.readouterr()
    assert code == expected
    if expected in (1, 3, 5):
        assert captured.out == "300\n"
    if expected == 3:
        assert "repro-minic: degraded" in captured.err
    if expected == 1:
        assert "repro-minic: strict" in captured.err
    if expected == 2:
        assert "repro-minic: error" in captured.err


def test_minic_unwritable_trace_out_keeps_degraded_exit(poison_file, capsys):
    code = minic_main(
        [poison_file]
        + DEGRADED_FLAGS
        + ["--trace-out", "/nonexistent-dir/trace.json"],
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "300\n"
    assert "cannot write trace" in captured.err
    assert "repro-minic: degraded" in captured.err


def test_minic_missing_source_is_a_driver_error(capsys):
    assert minic_main(["/nonexistent-dir/prog.c"]) == 2
    assert "repro-minic: error" in capsys.readouterr().err


# -- repro-report ----------------------------------------------------------


def fake_row(
    name,
    quarantined=(),
    retries=0,
    degraded=False,
    output_matches=True,
    promoter="sastry-ju",
):
    return BenchmarkRow(
        name=name,
        promoter=promoter,
        static_loads_before=10,
        static_loads_after=5,
        static_stores_before=8,
        static_stores_after=6,
        dynamic_loads_before=100,
        dynamic_loads_after=60,
        dynamic_stores_before=80,
        dynamic_stores_after=70,
        output_matches=output_matches,
        quarantined=list(quarantined),
        retries=retries,
        degraded=degraded,
        diagnostics={"summary": "stub"},
    )


@pytest.fixture
def degraded_suite(monkeypatch):
    row = fake_row("go", quarantined=["poison"], retries=1, degraded=True)
    monkeypatch.setattr(report, "measure_workload", lambda *a, **k: row)
    monkeypatch.setattr(report, "ORDER", ["go"])


def test_report_degraded_exits_3(degraded_suite, capsys):
    code = report.main(["--table", "2", "--chaos", CHAOS])
    assert code == 3
    assert "repro-report: resilience" in capsys.readouterr().err


def test_report_unwritable_trace_out_keeps_degraded_exit(degraded_suite, capsys):
    code = report.main(
        [
            "--table",
            "2",
            "--chaos",
            CHAOS,
            "--trace-out",
            "/nonexistent-dir/trace.json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "cannot write trace" in captured.err


def test_report_unwritable_diagnostics_dir_beats_degraded(
    degraded_suite, tmp_path, capsys
):
    # The diagnostics report is a requested artifact (not best-effort
    # observability), so failing to write it is a driver error: 2 > 3.
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = report.main(
        [
            "--table",
            "2",
            "--chaos",
            CHAOS,
            "--diagnostics-dir",
            str(blocker / "sub"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot write diagnostics" in captured.err


def test_report_clean_resilient_run_exits_0(monkeypatch, capsys):
    monkeypatch.setattr(report, "measure_workload", lambda *a, **k: fake_row("go"))
    monkeypatch.setattr(report, "ORDER", ["go"])
    assert report.main(["--table", "2", "--timeout", "60"]) == 0


def test_report_json_exits_3_when_degraded(degraded_suite, capsys):
    code = report.main(["--json", "--chaos", CHAOS])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["workloads"]["go"]["resilience"]["degraded"]
    assert "repro-report: resilience" in captured.err


def test_report_json_writes_the_diagnostics_dir(degraded_suite, tmp_path, capsys):
    diag_dir = tmp_path / "diags"
    code = report.main(["--json", "--diagnostics-dir", str(diag_dir)])
    assert code == 0
    assert json.loads((diag_dir / "go.json").read_text()) == {"summary": "stub"}


def stub_diverging_suite(monkeypatch, diverging):
    """One degraded workload, ``go``; the rows that ``diverging`` (a
    promoter name) promotes no longer behave like the original."""

    def measure(workload, promoter="sastry-ju", **kwargs):
        return fake_row(
            "go",
            quarantined=["poison"],
            retries=1,
            degraded=True,
            output_matches=promoter != diverging,
            promoter=promoter,
        )

    monkeypatch.setattr(report, "measure_workload", measure)
    monkeypatch.setattr(report, "ORDER", ["go"])


@pytest.fixture
def diverged_suite(monkeypatch):
    stub_diverging_suite(monkeypatch, "sastry-ju")


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--table", "2"], id="table"),
        pytest.param(["--json"], id="json"),
        pytest.param(["--table", "3", "--compare"], id="compare"),
    ],
)
def test_report_divergence_exits_1(diverged_suite, capsys, flags):
    assert report.main(flags) == 1
    err = capsys.readouterr().err
    assert "WARNING: behaviour changed for ['go (sastry-ju)']" in err


def test_report_divergence_in_a_compared_row_exits_1(monkeypatch, capsys):
    stub_diverging_suite(monkeypatch, "mahlke")
    assert report.main(["--table", "2"]) == 0
    assert report.main(["--table", "2", "--compare"]) == 1
    assert "['go (mahlke)']" in capsys.readouterr().err


def test_report_divergence_beats_degraded(diverged_suite, capsys):
    code = report.main(["--table", "2", "--chaos", CHAOS])
    captured = capsys.readouterr()
    assert code == 1
    assert "across 1/1 degraded workload(s)" in captured.err


def test_report_unwritable_diagnostics_dir_beats_divergence(
    diverged_suite, tmp_path, capsys
):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = report.main(
        ["--table", "2", "--chaos", CHAOS, "--diagnostics-dir", str(blocker / "sub")]
    )
    assert code == 2
    assert "cannot write diagnostics" in capsys.readouterr().err


def test_report_compare_rows_get_the_resilience(monkeypatch, capsys):
    # Without Table 1 or 2, the compared Sastry-Ju rows are the only
    # promoted rows: chaos must reach them and degrade the run.
    monkeypatch.setattr(report, "ORDER", ["compress"])
    code = report.main(
        ["--table", "3", "--compare", "--retries", "0", "--chaos", "crash=1.0,seed=1"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "repro-report: resilience: " in captured.err
    assert "across 1/1 degraded workload(s)" in captured.err
