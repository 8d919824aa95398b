"""The repro-minic command-line driver."""

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


def test_run_plain(source_file, capsys):
    code = main([source_file])
    assert capsys.readouterr().out == "45\n"
    assert code == 45


def test_emit_ir(source_file, capsys):
    code = main([source_file, "--emit-ir"])
    out = capsys.readouterr().out
    assert code == 0
    assert "func @main" in out
    assert "global @total" in out


def test_promote_and_stats(source_file, capsys):
    code = main([source_file, "--promote", "--stats"])
    captured = capsys.readouterr()
    assert captured.out == "45\n"
    assert "dynamic loads" in captured.err
    assert code == 45


def test_baselines(source_file, capsys):
    for baseline in ("lucooper", "mahlke"):
        code = main([source_file, "--baseline", baseline])
        assert capsys.readouterr().out == "45\n"
        assert code == 45


def test_entry_and_args(tmp_path, capsys):
    path = tmp_path / "f.c"
    path.write_text("int twice(int n) { return n * 2; }")
    code = main([str(path), "--entry", "twice", "--args", "21"])
    assert code == 42


def test_return_code_masked(tmp_path):
    path = tmp_path / "big.c"
    path.write_text("int main() { return 300; }")
    assert main([str(path)]) == 300 & 0xFF


def test_unroll_flag(source_file, capsys):
    code = main([source_file, "--unroll"])
    captured = capsys.readouterr()
    assert captured.out == "45\n"
    assert "unrolled" in captured.err
    assert code == 45


def test_emit_dot(source_file, capsys):
    code = main([source_file, "--emit-dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith('digraph "main"')


def test_unroll_then_promote_flag_combo(source_file, capsys):
    code = main([source_file, "--unroll", "--promote"])
    assert capsys.readouterr().out == "45\n"
    assert code == 45
