"""CLI observability surface: --trace-out/--metrics-out wiring, artifact
shape, and the exit-code precedence when an export path is unwritable."""

import json
import os

import pytest

from repro.frontend.cli import main

PROGRAM = """
int total = 0;
int step(int k) {
    for (int i = 0; i < 5; i++) total += k;
    return total;
}
int main() {
    int r = step(2);
    print(r);
    return r;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


def test_trace_and_metrics_exports(source_file, tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.json"
    code = main(
        [
            source_file,
            "--promote",
            "--timeout",
            "60",
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(metrics_path),
        ]
    )
    captured = capsys.readouterr()
    assert captured.out == "10\n"
    assert code == 10

    trace = json.loads(trace_path.read_text())
    names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
    for phase in ("phase:prepare", "phase:profile", "phase:promote"):
        assert phase in names
    assert "function:step" in names
    assert trace["otherData"]["config"]["resilience"]["timeout_s"] == 60
    assert trace["otherData"]["profile_source"] == "interpreter"

    metrics = json.loads(metrics_path.read_text())
    doc = metrics["metrics"]
    # Acceptance: exported deltas exactly match the pipeline's report.
    before = doc["pipeline.static_before.loads"]["value"]
    after = doc["pipeline.static_after.loads"]["value"]
    assert isinstance(before, int) and isinstance(after, int)


def test_jsonl_suffix_writes_the_event_log(source_file, tmp_path):
    log_path = tmp_path / "t.jsonl"
    main([source_file, "--promote", "--trace-out", str(log_path)])
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert lines[0]["type"] == "metadata"
    assert any(ln["type"] == "span" for ln in lines)
    assert any(ln["type"] == "metric" for ln in lines)


def test_flags_require_promote(source_file, capsys):
    code = main([source_file, "--trace-out", "t.json"])
    assert code == 2
    assert "require --promote" in capsys.readouterr().err


def test_flags_reject_baselines(source_file, capsys):
    code = main(
        [source_file, "--promote", "--baseline", "lucooper", "--metrics-out", "m.json"]
    )
    assert code == 2


def test_unwritable_trace_keeps_the_program_exit_code(source_file, tmp_path, capsys):
    missing = os.path.join(str(tmp_path), "no-such-dir", "t.json")
    code = main([source_file, "--promote", "--trace-out", missing])
    captured = capsys.readouterr()
    assert code == 10  # the program's return value, not a driver error
    assert "warning: cannot write trace" in captured.err


def test_unwritable_trace_does_not_mask_degraded_exit_3(source_file, tmp_path, capsys):
    missing = os.path.join(str(tmp_path), "no-such-dir", "t.json")
    code = main(
        [
            source_file,
            "--promote",
            "--retries",
            "1",
            "--chaos",
            "crash=1.0,only=step,seed=1",
            "--trace-out",
            missing,
        ]
    )
    captured = capsys.readouterr()
    # Precedence 2 > 1 > 3 is unchanged by the failed export: the run is
    # degraded (quarantine), so 3 wins; the export failure only warns.
    assert code == 3
    assert "warning: cannot write trace" in captured.err
    assert "degraded" in captured.err


def test_unwritable_trace_does_not_mask_strict_exit_1(source_file, tmp_path, capsys):
    missing = os.path.join(str(tmp_path), "no-such-dir", "t.json")
    code = main(
        [
            source_file,
            "--promote",
            "--retries",
            "1",
            "--chaos",
            "crash=1.0,only=step,seed=1",
            "--strict",
            "--trace-out",
            missing,
        ]
    )
    captured = capsys.readouterr()
    assert code == 1  # strict (1) outranks degraded (3); export still warns
    assert "warning: cannot write trace" in captured.err


def _both_exports_unwritable(tmp_path):
    return [
        "--trace-out",
        os.path.join(str(tmp_path), "no-such-dir", "t.json"),
        "--metrics-out",
        os.path.join(str(tmp_path), "no-such-dir", "m.json"),
    ]


def test_both_exports_unwritable_reports_both_and_keeps_exit_code(
    source_file, tmp_path, capsys
):
    # One run, two failed exports: the first failure must not short-circuit
    # the second export, and neither touches the program's exit code.
    code = main([source_file, "--promote"] + _both_exports_unwritable(tmp_path))
    captured = capsys.readouterr()
    assert code == 10
    assert "warning: cannot write trace" in captured.err
    assert "warning: cannot write metrics" in captured.err


def test_both_exports_unwritable_keep_degraded_exit_3(source_file, tmp_path, capsys):
    code = main(
        [
            source_file,
            "--promote",
            "--retries",
            "1",
            "--chaos",
            "crash=1.0,only=step,seed=1",
        ]
        + _both_exports_unwritable(tmp_path)
    )
    captured = capsys.readouterr()
    # Precedence 2 > 1 > 3 holds with two failed exports in one run.
    assert code == 3
    assert "warning: cannot write trace" in captured.err
    assert "warning: cannot write metrics" in captured.err
    assert "degraded" in captured.err


def test_both_exports_unwritable_keep_strict_exit_1(source_file, tmp_path, capsys):
    code = main(
        [
            source_file,
            "--promote",
            "--retries",
            "1",
            "--chaos",
            "crash=1.0,only=step,seed=1",
            "--strict",
        ]
        + _both_exports_unwritable(tmp_path)
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "warning: cannot write trace" in captured.err
    assert "warning: cannot write metrics" in captured.err


def test_decisions_out_writes_a_reconciled_journal(source_file, tmp_path, capsys):
    path = tmp_path / "decisions.jsonl"
    code = main([source_file, "--promote", "--decisions-out", str(path)])
    assert code == 10
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    head = lines[0]
    assert head["type"] == "metadata"
    totals = head["summary"]["totals"]
    assert (
        totals["promoted"] + totals["partial"] + totals["blocked"]
        == totals["candidates"]
    )
    assert all(line["type"] == "decision" for line in lines[1:])


def test_decisions_out_requires_promote(source_file, capsys):
    code = main([source_file, "--decisions-out", "d.jsonl"])
    assert code == 2
    assert "requires --promote" in capsys.readouterr().err


def test_unwritable_decisions_warns_and_keeps_the_exit_code(
    source_file, tmp_path, capsys
):
    missing = os.path.join(str(tmp_path), "no-such-dir", "d.jsonl")
    code = main([source_file, "--promote", "--decisions-out", missing])
    captured = capsys.readouterr()
    assert code == 10
    assert "warning: cannot write decisions" in captured.err
