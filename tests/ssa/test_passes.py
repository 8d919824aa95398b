"""Cleanup passes: DCE, dead memory-phi/store elimination, copy
propagation, dummy-load removal."""

from repro.ir import instructions as I
from repro.ir.parser import parse_module
from repro.ir.values import Const
from repro.ir.verify import verify_function
from repro.memory.aliasing import AliasModel
from repro.memory.memssa import build_memory_ssa
from repro.memory.resources import MemName
from repro.passes.copyprop import propagate_copies
from repro.passes.dce import (
    dead_code_elimination,
    dead_memory_elimination,
    remove_dummy_loads,
)
from repro.profile.interp import run_module

from tests.support import simple_loop


def test_dce_removes_pure_chain():
    module = parse_module(
        """
        func @main() {
        entry:
          %a = add 1, 2
          %b = mul %a, 3
          %c = copy %b
          ret 0
        }
        """
    )
    func = module.get_function("main")
    removed = dead_code_elimination(func)
    assert removed == 3
    assert len(func.entry.instructions) == 1


def test_dce_keeps_side_effects():
    module = parse_module(
        """
        module m
        global @x = 0
        func @main() {
        entry:
          st @x, 1
          %t = ld @x
          print 5
          %r = call @main()
          ret 0
        }
        """
    )
    func = module.get_function("main")
    removed = dead_code_elimination(func)
    # Only the unused load goes; store/print/call stay.
    assert removed == 1
    kinds = [type(i).__name__ for i in func.entry.instructions]
    assert kinds == ["Store", "Print", "Call", "Ret"]


def test_dce_removes_unused_loads_transitively():
    module = parse_module(
        """
        module m
        global @x = 0
        func @main() {
        entry:
          %t = ld @x
          %u = add %t, 1
          ret 0
        }
        """
    )
    func = module.get_function("main")
    assert dead_code_elimination(func) == 2


def test_dce_keeps_used_phi():
    module, func = simple_loop()
    removed = dead_code_elimination(func)
    assert removed == 0  # everything feeds the loop or the store


def test_dead_memphi_cycle_collected():
    # Two memphis that only feed each other must be collected.
    module = parse_module(
        """
        module m
        global @x = 0
        func @main() {
        entry:
          jmp h
        h:
          %i = phi [entry: 0, body: %i2]
          %c = lt %i, 3
          br %c, body, out
        body:
          %i2 = add %i, 1
          jmp h
        out:
          ret
        }
        """
    )
    func = module.get_function("main")
    x = module.get_global("x")
    h = func.find_block("h")
    body = func.find_block("body")
    entry = func.find_block("entry")
    # Hand-build a cyclic pair: phi_h joins (entry, phi_body-ish) ...
    n0 = MemName(x, 0, None)
    n1 = func.new_mem_name(x)
    phi = I.MemPhi(x, n1, [(entry, n0), (body, n1)])  # self-cycle via latch
    h.insert_at_front(phi)
    assert dead_memory_elimination(func) == 1
    assert list(h.mem_phis()) == []


def test_dead_memphi_kept_when_read():
    module, func = simple_loop()
    build_memory_ssa(func, AliasModel.conservative(module))
    # The loop phi is read by the body load: must survive.
    assert dead_memory_elimination(func) == 0


def test_copyprop_folds_chains():
    module = parse_module(
        """
        func @main(%a) {
        entry:
          %b = copy %a
          %c = copy %b
          %d = add %c, %b
          ret %d
        }
        """
    )
    func = module.get_function("main")
    folded = propagate_copies(func)
    assert folded == 2
    add = func.entry.instructions[0]
    assert isinstance(add, I.BinOp)
    assert add.lhs is func.params[0] and add.rhs is func.params[0]
    verify_function(func, check_ssa=True)


def test_copyprop_through_phi():
    module = parse_module(
        """
        func @main(%a) {
        entry:
          %b = copy %a
          br %a, l, r
        l:
          jmp join
        r:
          jmp join
        join:
          %v = phi [l: %b, r: 3]
          ret %v
        }
        """
    )
    func = module.get_function("main")
    propagate_copies(func)
    phi = next(func.find_block("join").phis())
    assert phi.value_for(func.find_block("l")) is func.params[0]
    before = run_module(module, args=[1]).return_value
    assert before == 1


def test_copyprop_constant_sources():
    module = parse_module(
        """
        func @main() {
        entry:
          %a = copy 7
          %b = add %a, 1
          ret %b
        }
        """
    )
    func = module.get_function("main")
    propagate_copies(func)
    add = func.entry.instructions[0]
    assert add.lhs == Const(7)
    assert run_module(module).return_value == 8


def test_remove_dummy_loads():
    module, func = simple_loop()
    build_memory_ssa(func, AliasModel.conservative(module))
    x = module.get_global("x")
    name = next(n for i in func.instructions() for n in i.mem_uses if n.var is x)
    func.entry.insert_at_front(I.DummyAliasedLoad(name))
    func.find_block("body").insert_at_front(I.DummyAliasedLoad(name))
    assert remove_dummy_loads(func) == 2
    assert not any(isinstance(i, I.DummyAliasedLoad) for i in func.instructions())


def test_passes_idempotent():
    module, func = simple_loop()
    dead_code_elimination(func)
    propagate_copies(func)
    assert dead_code_elimination(func) == 0
    assert propagate_copies(func) == 0
    assert remove_dummy_loads(func) == 0


def test_dead_memory_elimination_collects_orphaned_store():
    # A store whose only reader is a dead phi web must fall together with
    # the phis (the leak test: see DESIGN.md's cycle-aware sweep note).
    from repro.passes.dce import dead_memory_elimination

    module = parse_module(
        """
        module m
        global @x = 0
        func @main() {
        entry:
          jmp h
        h:
          %i = phi [entry: 0, body: %i2]
          %c = lt %i, 3
          br %c, body, out
        body:
          st @x, %i
          %i2 = add %i, 1
          jmp h
        out:
          ret
        }
        """
    )
    func = module.get_function("main")
    build_memory_ssa(func, AliasModel.conservative(module))
    store = next(i for i in func.instructions() if isinstance(i, I.Store))
    # Sever the observable chain: make the ret stop observing @x.
    for inst in func.instructions():
        if isinstance(inst, I.Ret):
            inst.mem_uses = []
    removed = dead_memory_elimination(func)
    # The loop phi and the store are gone in one sweep.
    assert removed == 2
    assert store.block is None
    assert not any(isinstance(i, I.MemPhi) for i in func.instructions())


def test_dead_memory_elimination_spares_observed_stores():
    from repro.passes.dce import dead_memory_elimination

    module, func = simple_loop()
    build_memory_ssa(func, AliasModel.conservative(module))
    assert dead_memory_elimination(func) == 0  # ret observes @x


def test_dead_memory_elimination_ignores_unannotated_stores():
    from repro.passes.dce import dead_memory_elimination

    module, func = simple_loop()  # no memory SSA built
    assert dead_memory_elimination(func) == 0
    assert any(isinstance(i, I.Store) for i in func.instructions())
