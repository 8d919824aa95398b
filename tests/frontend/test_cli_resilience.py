"""CLI resilience surface: --timeout/--retries/--chaos validation, exit
code 3 for degraded-but-complete runs, and the exit-code precedence
(2 driver errors > 1 strict > 3 degraded > program return value)."""

import json

import pytest

from repro.frontend.cli import main
from repro.robustness.supervise import SupervisorError

#: Two promotable functions so chaos can poison one while the other and
#: the program's behaviour survive.
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


def test_chaos_crash_run_degrades_to_exit_3(source_file, capsys):
    code = main(
        [
            source_file,
            "--promote",
            "--retries",
            "1",
            "--chaos",
            "crash=1.0,only=step,seed=1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    # The program still ran and printed the right answer.
    assert captured.out == "10\n"
    assert "repro-minic: degraded: 1 quarantined" in captured.err


def test_clean_resilient_run_keeps_the_program_exit_code(source_file, capsys):
    code = main([source_file, "--promote", "--timeout", "60"])
    captured = capsys.readouterr()
    assert captured.out == "10\n"
    assert code == 10
    assert "degraded" not in captured.err


def test_degraded_emit_ir_exits_3(source_file, capsys):
    code = main(
        [
            source_file,
            "--promote",
            "--retries",
            "1",
            "--chaos",
            "crash=1.0,only=step,seed=1",
            "--emit-ir",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "func @main" in captured.out


def test_strict_outranks_degraded(source_file, capsys):
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
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "repro-minic: strict:" in captured.err
    assert "1 quarantined" in captured.err


def test_chaos_flag_runs_without_jobs(source_file, capsys):
    code = main([source_file, "--promote", "--chaos", "crash=0.0"])
    captured = capsys.readouterr()
    assert code == 10
    assert captured.out == "10\n"
    assert captured.err == ""


def test_resilience_flags_require_promote(source_file, capsys):
    code = main([source_file, "--timeout", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "require --promote" in captured.err


def test_bad_chaos_spec_exits_2(source_file, capsys):
    code = main([source_file, "--promote", "--chaos", "frob=1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown chaos spec key 'frob'" in captured.err


def test_bad_timeout_exits_2(source_file, capsys):
    code = main([source_file, "--promote", "--timeout", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "timeout_s must be > 0" in captured.err


def test_diagnostics_carry_attempt_histories_and_quarantine(
    source_file, tmp_path, capsys
):
    out = tmp_path / "diag.json"
    code = main(
        [
            source_file,
            "--promote",
            "--retries",
            "1",
            "--chaos",
            "crash=1.0,only=step,seed=1",
            "--diagnostics",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 3
    data = json.loads(out.read_text())
    assert data["resilience"]["quarantined"] == ["step"]
    assert data["resilience"]["worker_crashes"] == 2
    assert data["resilience"]["options"]["retries"] == 1
    assert data["attempt_histories"]["step"]["attempts"] == 2
    by_name = {entry["name"]: entry for entry in data["functions"]}
    assert by_name["step"]["status"] == "quarantined"
    assert by_name["step"]["attempts"] == 2


def test_worker_fallback_is_printed_under_diagnostics(
    source_file, tmp_path, capsys, monkeypatch
):
    import repro.promotion.pipeline as pipeline_module

    def explode(self, names):
        raise SupervisorError("RuntimeError", "worker setup died")

    monkeypatch.setattr(pipeline_module.Supervisor, "run", explode)
    out = tmp_path / "diag.json"
    code = main(
        [source_file, "--promote", "--timeout", "60", "--diagnostics", str(out)]
    )
    captured = capsys.readouterr()
    # The in-process fallback completed the run; degraded exit, cause kept.
    assert code == 3
    assert (
        "repro-minic: worker fallback: RuntimeError: worker setup died"
        in captured.err
    )
    data = json.loads(out.read_text())
    assert data["fallback_reason"] == {
        "error_type": "RuntimeError",
        "detail": "worker setup died",
    }
