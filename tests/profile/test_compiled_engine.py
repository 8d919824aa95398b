"""Three-way differential: classic vs tiered vs always-source.

``compiled=False`` runs only the classic dispatch loop, the executable
specification.  ``compiled=True`` runs tiered: functions start in the
classic loop and move to generated Python source once hot.  The third
engine is the tiered one with the tier-up threshold at zero, so every
function runs as source from its first call.  All three must agree on
every observable: output, return value, step total, every operation
counter, the block-count profile, the final globals, and the type and
message of any error.
"""

import re
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir import instructions as I
from repro.ir.parser import parse_module
from repro.ir.values import Value, VReg
from repro.memory.resources import MemoryVar
from repro.profile import codegen
from repro.profile.interp import MAX_STEPS, Interpreter, _binop
from repro.promotion.pipeline import PromotionPipeline
from repro.ssa.destruct import destruct_ssa

from tests.property.genprog import random_program
from tests.support import nested_loops, simple_loop

ENGINES = ("classic", "tiered", "source")
COUNTERS = (
    "steps",
    "loads",
    "stores",
    "ptr_loads",
    "ptr_stores",
    "array_loads",
    "array_stores",
    "calls",
    "copies",
)


@contextmanager
def _engine(name):
    if name == "source":
        with mock.patch.object(codegen, "_TIER_UP", 0):
            yield
    else:
        yield


def _outcome(module, engine, entry="main", args=(), **kwargs):
    """Everything observable about one run, or the error it raised."""
    interpreter = Interpreter(module, compiled=engine != "classic", **kwargs)
    with _engine(engine):
        try:
            result = interpreter.run(entry, args)
        except Exception as exc:  # the error is the outcome
            return {"error": type(exc).__name__, "message": str(exc)}
    observed = {name: getattr(result, name) for name in COUNTERS}
    observed.update(
        output=result.output,
        return_value=result.return_value,
        # Block names repeat across functions; key by (function, block).
        block_counts={
            (block.function.name, block.name): count
            for block, count in result.block_counts.items()
        },
        globals=result.globals_snapshot(),
    )
    return observed


def _agree(module, entry="main", args=(), **kwargs):
    outcomes = {e: _outcome(module, e, entry, args, **kwargs) for e in ENGINES}
    assert outcomes["tiered"] == outcomes["classic"]
    assert outcomes["source"] == outcomes["classic"]
    return outcomes["classic"]


def _promoted(source, name, **kwargs):
    module = compile_source(source, name)
    PromotionPipeline(**kwargs).run(module)
    return module


# -- whole programs ------------------------------------------------------


@pytest.mark.parametrize("name", ORDER)
def test_engines_agree_on_every_workload(name):
    workload = WORKLOADS[name]
    raw = compile_source(workload.source, name)
    assert "error" not in _agree(raw, workload.entry, workload.args)
    promoted = _promoted(
        workload.source, name, entry=workload.entry, args=workload.args
    )
    assert "error" not in _agree(promoted, workload.entry, workload.args)
    # Out of SSA: copies, and registers with several definitions.
    for function in promoted.functions.values():
        destruct_ssa(function)
    assert _agree(promoted, workload.entry, workload.args)["copies"]


@pytest.mark.parametrize("max_steps", [10_000_000, 300])
@pytest.mark.parametrize("first", range(0, 300, 50))
def test_engines_agree_on_generated_programs(first, max_steps):
    for seed in range(first, first + 50):
        source = random_program(seed)
        _agree(compile_source(source, f"g{seed}"), max_steps=max_steps)
        _agree(_promoted(source, f"g{seed}"), max_steps=max_steps)


def test_engines_agree_on_loops():
    for factory in (simple_loop, nested_loops):
        module, func = factory()
        _agree(module, entry=func.name)


def test_engines_agree_on_globals_snapshot():
    module, func = simple_loop()
    assert _agree(module, entry=func.name)["globals"]


def test_engines_agree_with_externals():
    module = parse_module(
        """
        func @main() {
        entry:
          %a = call @ext(7)
          %b = call @sink(%a)
          print %a, %b
          ret %a
        }
        """
    )
    sink = []
    outcome = _agree(module, externals={"ext": lambda x: x + 1, "sink": sink.append})
    assert outcome["output"] == [(8, 0)]
    assert sink == [8, 8, 8]  # once per engine


# -- error paths -----------------------------------------------------------


def _error(module, **kwargs):
    outcome = _agree(module, **kwargs)
    return outcome.get("error"), outcome.get("message")


def test_engines_raise_the_same_runtime_error():
    module = parse_module(
        """
        func @main() {
        entry:
          %q = ldp 5
          ret %q
        }
        """
    )
    assert _error(module) == ("InterpreterError", "expected pointer, got 5")


UNASSIGNED = """
func @main() {
entry:
  %c = lt 1, 2
  br %c, skip, def
def:
  %x = add 1, 2
  jmp skip
skip:
  %y = add %x, %never
  ret %y
}
"""


def test_unassigned_register_message_is_pinned():
    # The source tier recovers the register from an UnboundLocalError
    # without NameError.name, which Python 3.9 lacks.
    assert _error(parse_module(UNASSIGNED)) == (
        "InterpreterError",
        "read of unassigned register %x",
    )


def test_register_never_defined_in_the_function():
    module = parse_module(UNASSIGNED.replace("%x, %never", "%never, %x"))
    assert _error(module) == ("InterpreterError", "read of unassigned register %never")


def test_unassigned_register_in_a_phi_move():
    module = parse_module(
        """
        func @main() {
        entry:
          %c = lt 1, 2
          br %c, join, def
        def:
          %x = add 1, 2
          jmp join
        join:
          %p = phi [entry: %x, def: %x]
          ret %p
        }
        """
    )
    assert _error(module) == ("InterpreterError", "read of unassigned register %x")


def test_integer_type_check():
    module = parse_module(
        """
        module m
        global @x = 1
        func @main() {
        entry:
          %p = addr @x
          %q = add %p, 1
          ret %q
        }
        """
    )
    message = "expected integer, got Pointer([1][0])"
    assert _error(module) == ("InterpreterError", message)


# Ways a pointer reaches an integer operand that the source tier must
# still check: only registers that can never hold a non-int go unchecked.
POINTER_PATHS = {
    "copy": """
        %c = copy %p
        %q = add %c, 1
        ret %q
    """,
    "phi": """
        jmp loop
    loop:
        %v = phi [entry: %p, loop: %w]
        %w = add %v, 1
        %more = lt %w, 10
        br %more, loop, done
    done:
        ret %w
    """,
    "parameter": """
        %q = call @f(%p)
        ret %q
    """,
    "scalar-ld": """
        st @y, %p
        %v = ld @y
        %q = add %v, 1
        ret %q
    """,
    "lda-on-a-scalar": """
        st @y, %p
        %v = lda @y, 0
        %q = add %v, 1
        ret %q
    """,
}


@pytest.mark.parametrize("path", POINTER_PATHS)
def test_integer_type_check_survives(path):
    module = parse_module(
        f"""
        module m
        global @x = 1
        global @y = 0
        func @f(%a) {{
        entry:
          %q = add %a, 1
          ret %q
        }}
        func @main() {{
        entry:
          %p = addr @x
          {POINTER_PATHS[path]}
        }}
        """
    )
    message = "expected integer, got Pointer([1][0])"
    assert _error(module) == ("InterpreterError", message)


def test_type_checks_do_not_carry_across_blocks():
    # "other" checks %p first in emission order, but never runs.
    module = parse_module(
        """
        module m
        global @x = 1
        func @main() {
        entry:
          %p = addr @x
          %c = lt 1, 2
          br %c, use, other
        other:
          %q = add %p, 1
          ret %q
        use:
          %r = add %p, 2
          ret %r
        }
        """
    )
    message = "expected integer, got Pointer([1][0])"
    assert _error(module) == ("InterpreterError", message)


def test_pointer_type_check_on_a_register():
    module = parse_module(
        """
        func @main() {
        entry:
          %v = add 2, 3
          stp %v, 1
          ret
        }
        """
    )
    assert _error(module) == ("InterpreterError", "expected pointer, got 5")


@pytest.mark.parametrize(
    "inst", ["%t = lda @A, %i", "sta @A, %i, 1", "%t = elem @A, %i"]
)
def test_bounds_checks(inst):
    module = parse_module(
        f"""
        module m
        array @A[2] = 0
        func @main() {{
        entry:
          %i = add 1, 4
          {inst}
          ret
        }}
        """
    )
    assert _error(module) == ("InterpreterError", "index 5 out of bounds for @A[2]")


def test_variable_without_storage():
    module = parse_module(
        """
        module m
        global @x = 1
        func @main() {
        entry:
          st @x, 4
          ret
        }
        """
    )
    store = module.functions["main"].entry.instructions[0]
    store.var = MemoryVar("ghost")
    assert _error(module) == ("InterpreterError", "variable @ghost has no storage")


def test_unknown_callee():
    module = parse_module(
        """
        func @main() {
        entry:
          %r = call @nowhere(1)
          ret %r
        }
        """
    )
    assert _error(module) == ("InterpreterError", "unknown callee @nowhere")


def test_unknown_operator():
    module = parse_module(
        """
        func @main() {
        entry:
          %r = add 1, 2
          ret %r
        }
        """
    )
    module.functions["main"].entry.instructions[0].op = "pow"
    assert _error(module) == ("InterpreterError", "unknown binary op pow")


def test_instruction_that_cannot_execute():
    module = parse_module(
        """
        func @main() {
        entry:
          %r = add 1, 2
          ret %r
        }
        """
    )
    block = module.functions["main"].entry
    block.instructions.insert(1, I.Phi(VReg("stray"), []))
    assert _error(module) == ("InterpreterError", "cannot execute Phi")


def test_value_that_cannot_be_evaluated():
    class Opaque(Value):
        def __repr__(self):
            return "Opaque()"

    module = parse_module(
        """
        func @main() {
        entry:
          %r = copy 1
          ret %r
        }
        """
    )
    module.functions["main"].entry.instructions[0].operands[0] = Opaque()
    assert _error(module) == ("InterpreterError", "cannot evaluate Opaque()")


def test_block_that_falls_through():
    module = parse_module(
        """
        func @main() {
        entry:
          %r = add 1, 2
          jmp next
        next:
          print %r
          ret
        }
        """
    )
    module.functions["main"].blocks[1].instructions.pop()
    assert _error(module) == ("InterpreterError", "block next fell through")


def test_phi_without_the_taken_edge():
    module = parse_module(
        """
        func @main() {
        entry:
          jmp join
        join:
          %p = phi [other: 1]
          ret %p
        other:
          jmp join
        }
        """
    )
    assert _error(module) == (
        "KeyError",
        str(KeyError("phi has no incoming value for block entry")),
    )


def test_phi_in_entry_block():
    module = parse_module(
        """
        func @main() {
        entry:
          %a = phi [entry: 1]
          ret %a
        }
        """
    )
    assert _error(module) == ("AssertionError", "phi in entry block")


def test_engines_enforce_the_same_step_limit():
    module, func = simple_loop(trip_count=1000)
    outcome = _agree(module, entry=func.name, max_steps=50)
    assert (outcome["error"], outcome["message"]) == (
        "InterpreterLimitError",
        "exceeded 50 steps",
    )


def test_recursion_depth_limit():
    module = parse_module(
        """
        func @f(%n) {
        entry:
          %m = add %n, 1
          %r = call @f(%m)
          ret %r
        }
        func @main() {
        entry:
          %r = call @f(0)
          ret %r
        }
        """
    )
    assert _error(module, max_depth=30) == (
        "InterpreterLimitError",
        "recursion deeper than 30",
    )


# -- division --------------------------------------------------------------

DIVISION_INPUTS = [0, 1, -1, 2, -2, 3, -3, 7, -7, 12, -12, 2**70, -(2**70)]


@pytest.mark.parametrize("op", ["div", "rem"])
def test_truncating_division_matches_the_classic_loop(op):
    helper = codegen._HELPERS[op.upper()]
    for a in DIVISION_INPUTS:
        for b in DIVISION_INPUTS:
            expected = _binop(op, a, b)
            assert helper(a, b) == expected, (a, b)
            if b > 0:  # by a constant: the inline form, bare and checked
                template = codegen._BY_POSITIVE[op]
                assert eval(template.format("a", "a", b)) == expected, (a, b)
                checked = template.format("t", "(t := a)", b)
                assert eval(checked, {"a": a}) == expected, (a, b)


def test_division_after_tier_up():
    # 300 trips: main tiers up mid-loop, then divides negative dividends
    # (some checked, loaded from @neg) by constants and by divisors that
    # cycle through -2, -1, 0 and 1.
    module = parse_module(
        """
        module m
        global @neg = -9
        func @main() {
        entry:
          jmp header
        header:
          %i = phi [entry: 0, body: %inext]
          %c = lt %i, 300
          br %c, body, done
        body:
          %n = sub -7, %i
          %big = mul %n, 1180591620717411303424
          %l = ld @neg
          %a = div %n, 3
          %b = rem %n, 5
          %e = div %big, 7
          %g = rem %l, 4
          %h = div %l, 2
          %r = rem %i, 4
          %d = sub %r, 2
          %x = div %n, %d
          %y = rem %big, %d
          print %a, %b, %e, %g, %h, %x, %y
          %m = sub %l, 1
          st @neg, %m
          %inext = add %i, 1
          jmp header
        done:
          ret %i
        }
        """
    )
    outcome = _agree(module)
    assert len(outcome["output"]) == 300
    assert outcome["output"][0] == (-2, -2, -1180591620717411303424, -1, -4, 3, 0)


# -- tier-up ---------------------------------------------------------------

FIB = """
func @fib(%n) {
entry:
  %c = lt %n, 2
  br %c, base, rec
base:
  ret %n
rec:
  %a = sub %n, 1
  %x = call @fib(%a)
  %b = sub %n, 2
  %y = call @fib(%b)
  %s = add %x, %y
  ret %s
}
func @main() {
entry:
  %r = call @fib(15)
  print %r
  ret %r
}
"""


def test_recursive_function_tiers_up_under_its_own_classic_activation():
    module = parse_module(FIB)
    compiled_under = []
    original = codegen.TieredRun._compile

    def spy(run, function, osr):
        compiled_under.append((function.name, len(run.starts)))
        return original(run, function, osr)

    with mock.patch.object(codegen.TieredRun, "_compile", spy):
        outcome = _outcome(module, "tiered")
    # main plus at least one classic fib activation were on the stack.
    assert compiled_under and compiled_under[0][0] == "fib"
    assert compiled_under[0][1] >= 2
    assert outcome == _outcome(module, "classic")
    assert outcome["output"] == [(610,)]


def test_long_running_activation_moves_to_source_mid_loop():
    # After entry the loop reads %step, defined before it; %i, the phi,
    # only in its own block; and %inext, at the end of body for the phi.
    # %c, %t and %t2 are block-local.
    module = parse_module(
        """
        module m
        global @x = 0
        func @loop() {
        entry:
          %step = add 1, 1
          jmp header
        header:
          %i = phi [entry: 0, body: %inext]
          %inext = add %i, 1
          %c = lt %i, 2000
          br %c, body, exitb
        body:
          %t = ld @x
          %t2 = add %t, %step
          st @x, %t2
          jmp header
        exitb:
          ret 0
        }
        """
    )
    compiled, restored = [], []
    original = codegen.TieredRun._compile
    translate = codegen._Unit.translate

    def spy(run, function, osr):
        compiled.append((function.name, osr))
        return original(run, function, osr)

    def prologue(unit):
        translate(unit)
        names = {name: str(reg) for reg, name in unit.registers.items()}
        for line in unit.lines:
            match = re.fullmatch(r"\s*if V\d+ in E: (r\d+) = E\[V\d+\]", line)
            if match:
                restored.append(names[match.group(1)])

    with mock.patch.object(codegen.TieredRun, "_compile", spy):
        with mock.patch.object(codegen._Unit, "translate", prologue):
            outcome = _outcome(module, "tiered", entry="loop")
    assert compiled == [("loop", True)]
    assert sorted(restored) == ["%i", "%inext", "%step"]
    assert outcome == _outcome(module, "classic", entry="loop")
    assert outcome["globals"] == {"x": 4000}


def test_unassigned_register_after_moving_to_source_mid_loop():
    module = parse_module(
        """
        func @main() {
        entry:
          %c = lt 1, 0
          br %c, def, header
        def:
          %x = add 1, 2
          jmp header
        header:
          %i = phi [entry: 0, def: 0, body: %j]
          %more = lt %i, 500
          br %more, body, done
        body:
          %j = add %i, 1
          jmp header
        done:
          %y = add %x, %i
          ret %y
        }
        """
    )
    outcome = _outcome(module, "tiered")
    assert outcome == _outcome(module, "classic")
    assert outcome["message"] == "read of unassigned register %x"


def test_jump_out_of_the_function_keeps_it_classic():
    module = parse_module(
        """
        func @f() {
        entry:
          jmp out
        out:
          ret 7
        }
        func @main() {
        entry:
          jmp done
        done:
          ret 1
        }
        """
    )
    foreign = module.functions["f"].blocks[1]
    module.functions["main"].entry.instructions[-1].targets[0] = foreign
    assert _agree(module)["return_value"] == 7


# -- re-execution on a profile -----------------------------------------------
#
# A re-execution is given each function's profiled steps, which fix its
# tier at its first call, and the code objects of an earlier tiered run.
# It must agree with the classic loop on everything above.  A step-limit
# error can still come up to one block early, which its type and
# message do not show.


def _hints(module, entry="main", args=(), max_steps=10_000_000):
    """Per-function steps and code objects of a run of ``module``, as
    phase 2 hands them to phase 5; the steps sum to each run's total."""
    classic = Interpreter(module, max_steps, compiled=False).run(entry, args)
    code = codegen.CodeObjects()
    tiered = Interpreter(module, max_steps, code_objects=code).run(entry, args)
    steps = codegen.profiled_steps(classic)
    assert sum(steps.values()) == classic.steps
    assert codegen.profiled_steps(tiered) == steps
    return steps, code


def _agree_hinted(profiled, module, entry="main", args=(), **kwargs):
    """``module`` re-run on the profile of ``profiled`` agrees with the
    classic loop, at the break-even point and with every function hot.
    Returns the classic outcome and the code objects the first re-run
    found in ``profiled``'s run: none under a small budget, since the
    profiling run needs a larger one and the limit is in the text."""
    steps, code = _hints(profiled, entry, args, max(kwargs["max_steps"], 10**7))
    expected = _outcome(module, "classic", entry, args, **kwargs)
    reused = []
    for break_even in (codegen._BREAK_EVEN, 0):
        with mock.patch.object(codegen, "_BREAK_EVEN", break_even):
            hinted = _outcome(
                module, "tiered", entry, args,
                profiled_steps=steps, code_objects=code, **kwargs,
            )
        assert hinted == expected
        reused.append(code.reused)
    return expected, reused[0]


@pytest.mark.parametrize("max_steps", [10_000_000, 300])
@pytest.mark.parametrize("name", ORDER)
def test_profile_hinted_engine_agrees_on_every_workload(name, max_steps):
    workload = WORKLOADS[name]
    raw = compile_source(workload.source, name)
    promoted = _promoted(
        workload.source, name, entry=workload.entry, args=workload.args
    )
    outcome, reused = _agree_hinted(
        raw, raw, workload.entry, workload.args, max_steps=max_steps
    )
    assert ("error" in outcome) == (max_steps == 300)
    assert reused or max_steps == 300  # phase 2's tier-ups emit phase 5's form
    outcome, _ = _agree_hinted(
        raw, promoted, workload.entry, workload.args, max_steps=max_steps
    )
    assert ("error" in outcome) == (max_steps == 300)


@pytest.mark.parametrize("max_steps", [10_000_000, 300])
@pytest.mark.parametrize("first", range(0, 300, 50))
def test_profile_hinted_engine_agrees_on_generated_programs(first, max_steps):
    for seed in range(first, first + 50):
        source = random_program(seed)
        raw = compile_source(source, f"g{seed}")
        _agree_hinted(raw, raw, max_steps=max_steps)
        _agree_hinted(raw, _promoted(source, f"g{seed}"), max_steps=max_steps)


def test_cold_and_unprofiled_functions_stay_classic():
    module = parse_module(FIB)
    code = codegen.CodeObjects()
    steps = {"fib": codegen._BREAK_EVEN - 1}  # main is not in the profile
    outcome = _outcome(
        module, "tiered", profiled_steps=steps, code_objects=code
    )
    assert outcome == _outcome(module, "classic")
    assert not code and code.compiled == code.reused == 0


def test_hot_function_runs_as_source_from_its_first_call():
    module = parse_module(FIB)
    compiled = []
    original = codegen.TieredRun._compile

    def spy(run, function, osr):
        compiled.append((function.name, osr))
        return original(run, function, osr)

    steps = {"fib": codegen._BREAK_EVEN, "main": codegen._BREAK_EVEN - 1}
    with mock.patch.object(codegen.TieredRun, "_compile", spy):
        outcome = _outcome(module, "tiered", profiled_steps=steps)
    # Once, in the form phase 2's tier-ups emit; main stays classic.
    assert compiled == [("fib", True)]
    assert outcome == _outcome(module, "classic")


LOOP = """
module m
global @x = 0
func @loop() {
entry:
  jmp header
header:
  %i = phi [entry: 0, body: %inext]
  %c = lt %i, 2000
  br %c, body, done
body:
  %t = ld @x
  %t2 = add %t, %i
  st @x, %t2
  %inext = add %i, 1
  jmp header
done:
  ret 0
}
"""


def test_a_later_run_reuses_the_code_of_an_earlier_one():
    first = parse_module(LOOP)
    steps, code = _hints(first, entry="loop", max_steps=MAX_STEPS)  # mid-loop
    assert (len(code), code.compiled, code.reused) == (1, 1, 0)
    # A fresh parse: new blocks and variables, the same text.
    again = parse_module(LOOP)
    outcome = _outcome(
        again, "tiered", entry="loop", profiled_steps=steps, code_objects=code
    )
    assert (len(code), code.compiled, code.reused) == (1, 1, 1)
    assert outcome == _outcome(again, "classic", entry="loop")
    assert outcome["globals"] == {"x": 1999000}


TWINS = """
func @{0}(%c) {{
entry:
  br %c, def, use
def:
  %{1} = add 1, 2
  jmp use
use:
  %{2} = add %{1}, 1
  ret %{2}
}}
"""


@pytest.mark.parametrize("order", [("f", "g"), ("g", "f")])
def test_functions_with_identical_text_get_their_own_code(order):
    # f and g differ only in register names, which their text does not
    # show; the second one called reads its register unassigned.
    first, second = order
    module = parse_module(
        TWINS.format("f", "x", "y")
        + TWINS.format("g", "u", "v")
        + f"""
        func @main() {{
        entry:
          %a = call @{first}(1)
          %b = call @{second}(0)
          ret %b
        }}
        """
    )
    code = codegen.CodeObjects()
    hot = codegen._BREAK_EVEN
    outcome = _outcome(
        module, "tiered", profiled_steps={"f": hot, "g": hot}, code_objects=code
    )
    register = {"f": "%x", "g": "%u"}[second]
    assert outcome == _outcome(module, "classic")
    assert outcome["message"] == f"read of unassigned register {register}"
    (f_name, f_text), (g_name, g_text) = sorted(code)
    assert (f_name, g_name) == ("f", "g") and f_text == g_text
    assert code[f_name, f_text] is not code[g_name, g_text]
