"""Provenance of block frequencies: diags.profile_source in every mode."""

from repro.bench.workloads import WORKLOADS
from repro.frontend.lower import compile_source
from repro.promotion.pipeline import PromotionPipeline


def _compile(name="compress"):
    workload = WORKLOADS[name]
    return workload, compile_source(workload.source, name)


def test_profile_source_interpreter_on_success():
    workload, module = _compile()
    result = PromotionPipeline(entry=workload.entry, args=list(workload.args)).run(
        module
    )
    assert result.diagnostics.profile_source == "interpreter"


def test_profile_source_estimator_when_interpreter_disabled():
    workload, module = _compile()
    pipeline = PromotionPipeline(
        entry=workload.entry, args=list(workload.args), use_interpreter_profile=False
    )
    result = pipeline.run(module)
    assert result.diagnostics.profile_source == "estimator"


def test_profile_source_estimator_when_entry_missing():
    _, module = _compile()
    result = PromotionPipeline(entry="nonesuch").run(module)
    assert result.diagnostics.profile_source == "estimator"


def test_profile_source_fallback_on_step_limit():
    workload, module = _compile()
    pipeline = PromotionPipeline(
        entry=workload.entry, args=list(workload.args), max_steps=10
    )
    result = pipeline.run(module)
    diags = result.diagnostics
    assert diags.profile_source == "estimator-fallback"
    assert any("interpreter limit" in warning for warning in diags.warnings)
    assert diags.as_dict()["profile_source"] == "estimator-fallback"


def test_profile_source_fallback_on_trap():
    module = compile_source(
        "int main() { int *p; int a; p = &a; a = 3; return *(p + 100000); }"
    )
    diags = PromotionPipeline().run(module).diagnostics
    assert diags.profile_source == "estimator-fallback"
    assert any(
        warning.startswith("profiling run failed (InterpreterError: ")
        for warning in diags.warnings
    )
