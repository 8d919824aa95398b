"""Pipeline configuration paths not covered elsewhere: the static
estimator profile, modules without an entry point, and entry
arguments."""


from repro.frontend.lower import compile_source
from repro.ir.parser import parse_module
from repro.profile.interp import run_module
from repro.promotion.pipeline import PromotionPipeline

SRC = """
int total = 0;
int helper(int n) {
    for (int i = 0; i < 10; i++) total += n;
    return total;
}
int main() {
    for (int outer = 0; outer < 5; outer++) {
        helper(outer);
    }
    return total;
}
"""


def test_estimator_profile_mode():
    baseline = run_module(compile_source(SRC)).return_value
    module = compile_source(SRC)
    result = PromotionPipeline(use_interpreter_profile=False).run(module)
    # No interpreter run: dynamic counts are not collected...
    assert result.dynamic_before.total == 0
    assert result.profile is not None
    # ...but the transformation is still correct.
    assert run_module(module).return_value == baseline


def test_module_without_entry_uses_estimator():
    module = parse_module(
        """
        module m
        global @x = 0
        func @lib() {
        entry:
          jmp h
        h:
          %i = phi [entry: 0, body: %i2]
          %c = lt %i, 10
          br %c, body, out
        body:
          %t = ld @x
          st @x, %t
          %i2 = add %i, 1
          jmp h
        out:
          ret
        }
        """
    )
    result = PromotionPipeline().run(module)  # no @main anywhere
    assert result.output_matches  # vacuously: nothing executed
    assert result.static_after.total >= 0
    baseline = run_module(module, entry="lib")
    assert baseline.return_value == 0


def test_entry_args_forwarded():
    source = """
    int bias = 3;
    int main(int a, int b) {
        for (int i = 0; i < a; i++) bias += b;
        return bias;
    }
    """
    module = compile_source(source)
    result = PromotionPipeline(args=[4, 10]).run(module)
    assert result.output_matches
    assert run_module(module, args=[4, 10]).return_value == 43


def test_report_format_stable():
    module = compile_source(SRC)
    result = PromotionPipeline().run(module)
    report = result.report()
    assert report.count("\n") == 5
    for token in (
        "static  loads",
        "dynamic stores",
        "behaviour preserved",
        "functions:",
        "promoted",
        "rolled back",
    ):
        assert token in report
