"""Function images: restoring must reproduce the exact IR text and
behaviour while keeping module-level identity (the interpreter keys
storage by variable identity), and an image must install into another
module's function of the same name, bound to that module's globals."""

import enum
import io
import pickle

import pytest

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir import Function, Module
from repro.ir import instructions as I
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.memory.resources import MemoryVar
from repro.profile.interp import run_module
from repro.promotion.pipeline import PromotionPipeline, _prepare
from repro.robustness import (
    FaultInjector,
    TransportError,
    capture_state,
    snapshot_function,
)
from repro.robustness.snapshot import _ImagePickler
from repro.ssa.construct import construct_ssa

from tests.property.genprog import random_program
from tests.support import diamond

TEXT = """
module m
global @g = 0

func @main() {
entry:
  jmp h
h:
  %i = phi [entry: 0, body: %i2]
  %c = lt %i, 5
  br %c, body, out
body:
  %t = ld @g
  %t2 = add %t, %i
  st @g, %t2
  %i2 = add %i, 1
  jmp h
out:
  %r = ld @g
  ret %r
}
"""


def test_restore_round_trips_ir_text():
    module = parse_module(TEXT)
    function = module.get_function("main")
    original = print_function(function)

    snap = snapshot_function(function)
    assert print_function(function) == original  # snapshotting is pure

    FaultInjector().apply("drop_compensating_store", function)
    assert print_function(function) != original

    restored = snap.restore()
    assert restored is function  # same object: external refs stay valid
    assert print_function(function) == original
    for block in function.blocks:
        assert block.function is function
        for inst in block.instructions:
            assert inst.block is block


def test_restore_preserves_behaviour_and_global_identity():
    module = parse_module(TEXT)
    function = module.get_function("main")
    baseline = run_module(module)

    snap = snapshot_function(function)
    FaultInjector().apply("drop_compensating_store", function)
    snap.restore()

    # The restored IR must reference the module's own global objects —
    # the alias model and interpreter rely on identity, not name.
    for inst in function.instructions():
        if isinstance(inst, (I.Load, I.Store)):
            assert inst.var is module.globals[inst.var.name]

    after = run_module(module)
    assert after.return_value == baseline.return_value
    assert after.output == baseline.output
    assert after.globals_snapshot() == baseline.globals_snapshot()


def test_capture_state_toggles_between_versions():
    # The cheap FunctionState capture is what bisection uses to flip a
    # function between its promoted and pre-promotion IR.
    module = parse_module(TEXT)
    function = module.get_function("main")
    original_text = print_function(function)

    snap = snapshot_function(function)
    FaultInjector().apply("drop_compensating_store", function)
    mutated_text = print_function(function)
    mutated = capture_state(function)

    snap.restore()
    assert print_function(function) == original_text
    mutated.install(function)
    assert print_function(function) == mutated_text
    snap.restore()
    assert print_function(function) == original_text
    for block in function.blocks:
        assert block.function is function


def test_restore_is_idempotent():
    module = parse_module(TEXT)
    function = module.get_function("main")
    original = print_function(function)
    snap = snapshot_function(function)
    FaultInjector().apply("drop_compensating_store", function)
    snap.restore()
    snap.restore()
    assert print_function(function) == original
    assert run_module(module).return_value == 10


def test_restores_hand_out_fresh_objects():
    module = parse_module(TEXT)
    function = module.get_function("main")
    snap = snapshot_function(function)
    snap.restore()
    first = function.blocks
    snap.restore()
    assert function.blocks is not first
    assert not {id(b) for b in first} & {id(b) for b in function.blocks}


# -- transport: installing an image into another module --------------------


def test_image_round_trips_through_pickle():
    module, func = diamond()
    copy = pickle.loads(pickle.dumps(module))
    # Only the name and the bytes travel: not the function, its module
    # or their globals.
    image = pickle.loads(pickle.dumps(snapshot_function(func)))
    image.install(copy)
    assert print_module(copy) == print_module(module)


def test_install_preserves_function_identity():
    module, func = diamond()
    copy = pickle.loads(pickle.dumps(module))
    copy_func = copy.get_function("diamond")
    # Perturb the copy so install visibly overwrites it.
    copy_func.find_block("left").instructions.pop(0)
    assert print_module(copy) != print_module(module)

    installed = snapshot_function(func).install(copy)
    # External references to the copy's Function stay valid.
    assert installed is copy_func
    assert print_module(copy) == print_module(module)


def test_install_rebinds_globals_to_target_module():
    module, func = diamond()
    copy = pickle.loads(pickle.dumps(module))
    snapshot_function(func).install(copy)
    target_x = copy.get_global("x")
    for inst in copy.get_function("diamond").instructions():
        if isinstance(inst, (I.Load, I.Store)):
            assert inst.var is target_x
            assert inst.var is not module.get_global("x")


def test_install_into_module_missing_function_fails():
    module, func = diamond()
    copy = pickle.loads(pickle.dumps(module))
    image = snapshot_function(func)
    image.name = "nonesuch"
    with pytest.raises(TransportError, match="no function nonesuch"):
        image.install(copy)


def test_install_with_unknown_global_fails():
    module, func = diamond()
    copy = pickle.loads(pickle.dumps(module))
    del copy.globals["x"]
    before = print_module(copy)
    with pytest.raises(TransportError, match="unknown global @x"):
        snapshot_function(func).install(copy)
    assert print_module(copy) == before  # a failed install changes nothing


def test_plain_unpickling_fails_before_building_ir():
    module, func = diamond()
    data = snapshot_function(func).data
    with pytest.raises(TransportError):
        pickle.loads(data)
    # The image leads with the function's key: nothing else, not even
    # a class, is looked up before the load fails.
    resolved = []

    class Recording(pickle.Unpickler):
        def find_class(self, module_name, name):
            resolved.append(name)
            return super().find_class(module_name, name)

    with pytest.raises(TransportError):
        Recording(io.BytesIO(data)).load()
    assert resolved == ["_shared"]


@pytest.mark.parametrize("name", ORDER[:2])
def test_capture_reduces_each_shareable_object_once(name, monkeypatch):
    calls = []
    reduce = _ImagePickler._reduce

    def spy(self, obj):
        calls.append(obj)
        return reduce(self, obj)

    monkeypatch.setattr(_ImagePickler, "_reduce", spy)
    module = compile_source(WORKLOADS[name].source)
    for function in module.functions.values():
        construct_ssa(function)
        calls.clear()
        snapshot_function(function)
        reached = _reachable(function)
        assert all(isinstance(obj, (Function, Module, MemoryVar)) for obj in calls)
        assert len({id(obj) for obj in calls}) == len(calls)
        assert {id(obj) for obj in calls} <= set(reached)
        assert function in calls


# -- differential: every function of the proxies and genprog seeds ---------


def _reachable(function):
    """id -> object for everything the function's mutable state reaches,
    stopping at functions and modules."""
    state = capture_state(function)
    stack = [state.blocks, state.params, state.frame_vars, state.mem_versions]
    seen = {}
    while stack:
        obj = stack.pop()
        if obj is None or isinstance(obj, (int, str, float, enum.Enum)):
            continue
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (Function, Module)):
            continue
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    stack.append(getattr(obj, slot, None))
    return seen


def _check_images(module):
    for name, function in module.functions.items():
        text = print_function(function)
        original = _reachable(function)
        image = snapshot_function(function)

        # Transport into a pickled copy of the module.
        copy = pickle.loads(pickle.dumps(module))
        image.install(copy)
        target = copy.functions[name]
        assert print_function(target) == text
        for obj in _reachable(target).values():
            assert obj is not module and obj is not function
            if isinstance(obj, MemoryVar) and obj.name in module.globals:
                if obj not in target.frame_vars.values():
                    assert obj is copy.globals[obj.name]

        # Rollback: a fresh copy that shares only the function, the
        # module and the module's globals with the original.
        image.restore()
        assert print_function(function) == text
        shared = set(original) & set(_reachable(function))
        allowed = {id(function), id(module)}
        allowed.update(id(var) for var in module.globals.values())
        assert shared <= allowed, [original[i] for i in shared - allowed]


def _differential(source, entry="main", args=()):
    prepared = compile_source(source)
    for function in prepared.functions.values():
        _prepare(function)
    _check_images(prepared)
    promoted = compile_source(source)
    PromotionPipeline(entry=entry, args=list(args)).run(promoted)
    _check_images(promoted)


@pytest.mark.parametrize("name", ORDER)
def test_images_of_proxy_functions(name):
    workload = WORKLOADS[name]
    _differential(workload.source, workload.entry, workload.args)


@pytest.mark.parametrize("seed", range(20))
def test_images_of_generated_functions(seed):
    _differential(random_program(seed))
