"""The issue's acceptance scenario: with a deliberately unsound alias
model the pipeline must still terminate with behaviour-preserving IR —
the re-execution oracle detects the divergence, bisection isolates the
culprit functions, and the diagnostics name every rollback with a
reason."""

import functools
import json

import repro.promotion.pipeline
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.profile.interp import Interpreter, run_module
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import UnsoundAliasModel

TEXT = """
module m
global @a = 0
global @x = 0

func @main() {
entry:
  %r1 = call @clean()
  %r2 = call @alias_trap()
  %s = add %r1, %r2
  print %s
  ret %s
}

func @clean() {
entry:
  jmp h
h:
  %i = phi [entry: 0, body: %i2]
  %c = lt %i, 8
  br %c, body, out
body:
  %t = ld @a
  %t2 = add %t, 1
  st @a, %t2
  %i2 = add %i, 1
  jmp h
out:
  %r = ld @a
  ret %r
}

func @alias_trap() {
entry:
  %p = addr @x
  jmp h
h:
  %i = phi [entry: 0, latch: %i2]
  %c = lt %i, 10
  br %c, body, out
body:
  %t = ld @x
  %t2 = add %t, 1
  st @x, %t2
  %cc = eq %i, 5
  br %cc, hit, latch
hit:
  stp %p, 100
  jmp latch
latch:
  %i2 = add %i, 1
  jmp h
out:
  %r = ld @x
  ret %r
}
"""


def test_pipeline_recovers_from_unsound_aliasing():
    baseline = run_module(parse_module(TEXT))
    module = parse_module(TEXT)

    # Must complete without raising even though the alias model lies.
    result = PromotionPipeline(alias_model=UnsoundAliasModel).run(module)

    assert result.output_matches
    final = run_module(module)
    assert final.output == baseline.output
    assert final.return_value == baseline.return_value
    assert final.globals_snapshot() == baseline.globals_snapshot()

    diags = result.diagnostics
    # The function whose pointer store the model denied must be rolled
    # back; the alias-free function must keep its promotion.
    assert "alias_trap" in diags.rolled_back_functions
    assert "clean" in diags.promoted_functions
    for name in diags.rolled_back_functions:
        outcome = diags.outcomes[name]
        assert outcome.stage == "re-execution"
        assert outcome.reason  # every rollback is explained

    report = diags.bisection
    assert report is not None
    assert report.resolved
    assert "alias_trap" in report.culprits
    assert set(report.culprits) <= set(report.candidates)
    assert report.tests_run >= 1
    assert any("bisect" in w for w in diags.warnings)

    text = result.report()
    assert "rolled back" in text
    assert "warning:" in text


# Both loops long enough for phase 5 to run them as source from the start.
HOT = TEXT.replace("lt %i, 8", "lt %i, 400").replace("lt %i, 10", "lt %i, 400")


def _bisected(monkeypatch, classic):
    """IR, diagnostics and final run of a bisecting pipeline run, and
    the units each re-execution compiled or reused."""
    units = []
    execute = PromotionPipeline._execute

    def counted(self, module, steps):
        outcome = execute(self, module, steps)
        run = outcome[0]
        units.append(run.units_compiled + run.units_reused if run else None)
        return outcome

    with monkeypatch.context() as patch:
        patch.setattr(PromotionPipeline, "_execute", counted)
        if classic:
            patch.setattr(
                repro.promotion.pipeline,
                "Interpreter",
                functools.partial(Interpreter, compiled=False),
            )
        module = parse_module(HOT)
        result = PromotionPipeline(alias_model=UnsoundAliasModel).run(module)
    diagnostics = json.loads(result.diagnostics.to_json())
    for outcome in diagnostics["functions"]:
        outcome["duration_ms"] = 0.0  # timing is not an output
    final = result.final_run
    run = (
        final.output,
        final.return_value,
        final.steps,
        final.loads,
        final.stores,
        {(b.function.name, b.name): n for b, n in final.block_counts.items()},
    )
    return (print_module(module), diagnostics, run), units


def test_bisection_on_phase_two_profile_matches_the_classic_loop(monkeypatch):
    # A bisection re-run restores fresh block objects, so only hints
    # keyed by function name still find both loops hot.
    tiered, units = _bisected(monkeypatch, classic=False)
    classic, classic_units = _bisected(monkeypatch, classic=True)
    assert tiered == classic
    assert tiered[1]["bisection"]["culprits"] == ["alias_trap"]
    assert len(units) >= 3 and units == [2] * len(units)
    assert classic_units == [0] * len(units)
