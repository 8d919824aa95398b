"""Untrusted-input resource limits on the frontend.

Hostile input must fail with a structured FrontendLimitError — never a
raw RecursionError or an OOM — and the CLI must report it as a driver
error (exit 2) like any other compile failure.
"""

import pytest

from repro.frontend.cli import main
from repro.frontend.errors import CompileError, FrontendLimitError
from repro.frontend.limits import DEFAULT_LIMITS, InputLimits
from repro.frontend.lower import compile_source

PROGRAM = """
int total = 0;
int main() {
    for (int i = 0; i < 10; i++) total += i;
    print(total);
    return total;
}
"""


def test_normal_program_passes_default_limits():
    module = compile_source(PROGRAM, limits=DEFAULT_LIMITS)
    assert module.functions


def test_oversized_source_rejected_before_lexing():
    limits = InputLimits(max_source_bytes=16)
    with pytest.raises(FrontendLimitError) as excinfo:
        compile_source(PROGRAM, limits=limits)
    err = excinfo.value
    assert err.limit == "source size"
    assert err.actual > err.maximum == 16
    assert "source size" in str(err)


def test_token_flood_rejected_mid_scan():
    limits = InputLimits(max_tokens=10)
    with pytest.raises(FrontendLimitError) as excinfo:
        compile_source(PROGRAM, limits=limits)
    err = excinfo.value
    assert err.limit == "token count"
    assert err.maximum == 10
    assert err.line >= 1


def test_deep_unary_chain_trips_the_default_depth_cap():
    # 300 stacked unary operators would recurse 2 Python frames per
    # level in the parser (600 in all); the cap must fire first.  ("!" rather
    # than "-": the lexer max-munches "--" into a different token.)
    deep = "int main() { return " + "!" * 300 + "1; }"
    with pytest.raises(FrontendLimitError) as excinfo:
        compile_source(deep)
    assert excinfo.value.limit == "nesting depth"


def test_custom_depth_cap_is_enforced():
    source = "int main() { return " + "!" * 20 + "1; }"
    compile_source(source)  # fine under the defaults
    with pytest.raises(FrontendLimitError):
        compile_source(source, limits=InputLimits(max_depth=5))


def test_limit_error_is_a_compile_error():
    # Existing `except CompileError` handlers must keep working.
    assert issubclass(FrontendLimitError, CompileError)


def test_limits_reject_nonpositive_caps():
    for field in ("max_source_bytes", "max_tokens", "max_depth"):
        with pytest.raises(ValueError):
            InputLimits(**{field: 0})


def test_limits_as_dict_round_trips():
    limits = InputLimits(max_source_bytes=10, max_tokens=20, max_depth=30)
    assert limits.as_dict() == {
        "max_source_bytes": 10,
        "max_tokens": 20,
        "max_depth": 30,
    }


def test_cli_reports_limit_trip_as_driver_error(tmp_path, capsys):
    path = tmp_path / "deep.c"
    path.write_text("int main() { return " + "!" * 300 + "1; }")
    code = main([str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "repro-minic: error" in captured.err
    assert "nesting depth" in captured.err
