"""The drivers answer from phase 5's run: ``PipelineResult.final_run`` is
the module as returned, already executed under the pipeline's budget.

``repro-minic --promote`` and a fresh served job each run the
interpreter twice (the profile and the re-execution), not a third time
for the answer.  The fallback cases, where the driver must run the
module itself, are pinned by the trapping-program and ``max_steps=10``
tests of the CLI and the engine.
"""

import pytest

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.cli import main
from repro.frontend.lower import compile_source
from repro.ir.parser import parse_module
from repro.profile.interp import Interpreter
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import UnsoundAliasModel
from repro.service.engine import PromotionEngine
from repro.service.jobs import JobRequest

from tests.property.genprog import random_program
from tests.robustness.test_unsound_alias import TEXT as UNSOUND_ALIAS_TEXT


@pytest.fixture
def count_runs(monkeypatch):
    """Count ``Interpreter.run`` calls from here on."""
    calls = []
    real_run = Interpreter.run

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "run", counted)
    return calls


def test_cli_promote_runs_the_interpreter_twice(tmp_path, capsys, count_runs):
    source = WORKLOADS["compress"].source
    path = tmp_path / "compress.c"
    path.write_text(source)
    code = main([str(path), "--promote"])
    runs = len(count_runs)
    expected = Interpreter(compile_source(source)).run()
    assert capsys.readouterr().out == "".join(
        " ".join(str(v) for v in values) + "\n" for values in expected.output
    )
    assert code == expected.return_value & 0xFF
    assert runs == 2


def test_fresh_served_job_runs_the_interpreter_twice(count_runs):
    engine = PromotionEngine(workers=1)
    try:
        result = engine.execute(
            JobRequest("minic", WORKLOADS["compress"].source), 60.0, "job-1"
        )
    finally:
        engine.shutdown(wait=True)
    assert not result.cached
    assert result.output
    assert len(count_runs) == 2


def _inputs():
    for name in ORDER:
        workload = WORKLOADS[name]
        yield name, workload.source, workload.entry, list(workload.args)
    for seed in range(200):
        yield f"genprog-{seed}", random_program(seed), "main", []


def test_final_run_is_a_fresh_run_of_the_returned_module():
    for label, source, entry, args in _inputs():
        module = compile_source(source)
        result = PromotionPipeline(entry=entry, args=args).run(module)
        final = result.final_run
        assert final is not None, label
        fresh = Interpreter(module).run(entry, args)
        assert final.output == fresh.output, label
        assert final.return_value == fresh.return_value, label
        assert final.globals_snapshot() == fresh.globals_snapshot(), label


def test_final_run_after_bisection_is_the_rolled_back_module():
    module = parse_module(UNSOUND_ALIAS_TEXT)
    result = PromotionPipeline(alias_model=UnsoundAliasModel).run(module)
    assert result.diagnostics.bisection is not None
    assert result.diagnostics.rolled_back_functions
    fresh = Interpreter(module).run()
    assert result.final_run.output == fresh.output
    assert result.final_run.return_value == fresh.return_value
    assert result.final_run.globals_snapshot() == fresh.globals_snapshot()
    assert result.output_matches


def test_final_run_is_none_without_a_profiling_run():
    module = compile_source(WORKLOADS["compress"].source)
    result = PromotionPipeline(use_interpreter_profile=False).run(module)
    assert result.final_run is None
