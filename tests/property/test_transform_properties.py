"""Property tests for the individual transformations: each must preserve
program behaviour in isolation, and printing must round-trip."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.lower import compile_source
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verify import verify_module
from repro.memory.aliasing import AliasModel
from repro.memory.memssa import build_memory_ssa
from repro.profile.interp import run_module
from repro.promotion.pipeline import _prepare
from repro.ssa.construct import construct_ssa
from repro.ssa.destruct import destruct_ssa, eliminate_phis

from tests.property.genprog import random_program

SETTINGS = settings(max_examples=30, deadline=None)


def observe(module):
    result = run_module(module, max_steps=2_000_000)
    return result.output, result.return_value, result.globals_snapshot()


@SETTINGS
@given(st.integers(0, 10**9))
def test_mem2reg_preserves_semantics(seed):
    source = random_program(seed)
    baseline = observe(compile_source(source))
    module = compile_source(source)
    for function in module.functions.values():
        construct_ssa(function)
    verify_module(module, check_ssa=True)
    assert observe(module) == baseline


@SETTINGS
@given(st.integers(0, 10**9))
def test_normalization_preserves_semantics(seed):
    source = random_program(seed)
    baseline = observe(compile_source(source))
    module = compile_source(source)
    for function in module.functions.values():
        _prepare(function)
    verify_module(module, check_ssa=True)
    assert observe(module) == baseline


@SETTINGS
@given(st.integers(0, 10**9))
def test_memssa_annotations_verify_and_do_not_change_behaviour(seed):
    source = random_program(seed)
    module = compile_source(source)
    for function in module.functions.values():
        _prepare(function)
    baseline = observe(module)
    model = AliasModel.conservative(module)
    for function in module.functions.values():
        build_memory_ssa(function, model)
    verify_module(module, check_ssa=True, check_memssa=True)
    assert observe(module) == baseline


@SETTINGS
@given(st.integers(0, 10**9))
def test_phi_elimination_preserves_semantics(seed):
    source = random_program(seed)
    module = compile_source(source)
    for function in module.functions.values():
        construct_ssa(function)
    baseline = observe(module)
    for function in module.functions.values():
        eliminate_phis(function)
        verify_module(module)  # no longer SSA, but structurally sound
    assert observe(module) == baseline


@SETTINGS
@given(st.integers(0, 10**9))
def test_full_destruction_after_promotion(seed):
    from repro.promotion.pipeline import PromotionPipeline

    source = random_program(seed)
    baseline = observe(compile_source(source))
    module = compile_source(source)
    PromotionPipeline().run(module)
    for function in module.functions.values():
        destruct_ssa(function)
    verify_module(module)
    assert observe(module) == baseline


@SETTINGS
@given(st.integers(0, 10**9))
def test_printer_parser_round_trip(seed):
    source = random_program(seed)
    module = compile_source(source)
    text1 = print_module(module, with_mem=False)
    module2 = parse_module(text1)
    text2 = print_module(module2, with_mem=False)
    assert text1 == text2
    assert observe(module) == observe(module2)
