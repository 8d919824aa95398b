"""CLI failure handling: exit code 2 with one-line messages on driver
errors, the --max-steps budget, --diagnostics JSON dumps, and --strict."""

import json

import pytest

from repro.frontend.cli import main

PROGRAM = """
int total = 0;
int main() {
    for (int i = 0; i < 10; i++) total += i;
    print(total);
    return total;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


def test_missing_file_exits_2(tmp_path, capsys):
    code = main([str(tmp_path / "nope.c")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro-minic: error: cannot read")
    assert captured.err.count("\n") == 1  # one line, no traceback


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.c"
    path.write_text("int main( {")
    code = main([str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro-minic: error:")
    assert "broken.c" in captured.err


def test_non_decimal_digit_exits_2(tmp_path, capsys):
    # "²" passes str.isdigit() but not int(): a lexical error, not a crash.
    path = tmp_path / "digit.c"
    path.write_text("int main() { return 2²; }", encoding="utf-8")
    code = main([str(path)])
    captured = capsys.readouterr()
    assert code == 2
    expected = f"repro-minic: error: {path}: line 1: unexpected character '²'\n"
    assert captured.err == expected


def test_sema_error_exits_2(tmp_path, capsys):
    path = tmp_path / "sema.c"
    path.write_text("int main() { return nope; }")
    code = main([str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro-minic: error:")


def test_max_steps_budget_exhaustion_exits_2(source_file, capsys):
    code = main([source_file, "--max-steps", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "execution failed" in captured.err


def test_trapping_program_with_promote_exits_2(tmp_path, capsys):
    # The profiling run traps too; promotion falls back to the static
    # estimate and the final run reports the trap.
    path = tmp_path / "trap.c"
    path.write_text(
        "int main() { int *p; int a; p = &a; a = 3; return *(p + 100000); }"
    )
    code = main([str(path), "--promote"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro-minic: error: execution failed:")
    assert captured.err.count("\n") == 1  # one line, no traceback


def test_max_steps_generous_budget_runs_normally(source_file, capsys):
    code = main([source_file, "--max-steps", "100000"])
    assert capsys.readouterr().out == "45\n"
    assert code == 45


def test_diagnostics_flag_writes_json(source_file, tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = main([source_file, "--promote", "--diagnostics", str(out)])
    assert capsys.readouterr().out == "45\n"
    assert code == 45
    data = json.loads(out.read_text())
    assert data["summary"].startswith("1 promoted")
    names = [entry["name"] for entry in data["functions"]]
    assert names == ["main"]


def test_diagnostics_without_pipeline_exits_2(source_file, tmp_path, capsys):
    code = main([source_file, "--diagnostics", str(tmp_path / "d.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "--diagnostics requires" in captured.err


def test_strict_passes_on_clean_run(source_file, capsys):
    code = main([source_file, "--promote", "--strict"])
    assert capsys.readouterr().out == "45\n"
    assert code == 45


def test_strict_fails_on_rollback(source_file, capsys, monkeypatch):
    import repro.promotion.pipeline as pipeline_module

    def explode(function, mssa, profile, tree, options):
        raise RuntimeError("promotion exploded")

    monkeypatch.setattr(pipeline_module, "promote_function", explode)
    code = main([source_file, "--promote", "--strict"])
    captured = capsys.readouterr()
    assert code == 1
    assert "repro-minic: strict:" in captured.err
    assert "1 rolled back" in captured.err
    # The program itself still ran correctly on the rolled-back IR.
    assert captured.out == "45\n"


def test_strict_with_emit_ir_reports_failure(source_file, capsys, monkeypatch):
    import repro.promotion.pipeline as pipeline_module

    def explode(function, mssa, profile, tree, options):
        raise RuntimeError("promotion exploded")

    monkeypatch.setattr(pipeline_module, "promote_function", explode)
    code = main([source_file, "--promote", "--strict", "--emit-ir"])
    captured = capsys.readouterr()
    assert code == 1
    assert "func @main" in captured.out
