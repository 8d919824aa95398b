from repro.ir import instructions as I
from repro.ir.parser import parse_module
from repro.ir.verify import verify_function
from repro.memory.aliasing import AliasModel
from repro.memory.memssa import build_memory_ssa
from repro.ssa.incremental import names_of_var

from tests.support import diamond, simple_loop


def _build(module, fname):
    func = module.get_function(fname)
    model = AliasModel.conservative(module)
    mssa = build_memory_ssa(func, model)
    verify_function(func, check_ssa=True, check_memssa=True)
    return func, mssa


def test_diamond_gets_memphi_at_join():
    module, func = diamond()
    func, mssa = _build(module, "diamond")
    join = func.find_block("join")
    phis = list(join.mem_phis())
    assert len(phis) == 1
    phi = phis[0]
    assert phi.var.name == "x"
    assert len(phi.incoming) == 2
    # Ret uses the phi's name (globals observable at return).
    ret = join.terminator
    assert ret.mem_uses == [phi.dst_name]


def test_load_uses_entry_name():
    module, func = diamond()
    func, mssa = _build(module, "diamond")
    load = next(i for i in func.instructions() if isinstance(i, I.Load))
    assert load.mem_uses[0].is_entry
    assert load.mem_uses[0] is mssa.entry_names[module.get_global("x")]


def test_stores_get_unique_names():
    module, func = diamond()
    func, _ = _build(module, "diamond")
    stores = [i for i in func.instructions() if isinstance(i, I.Store)]
    names = {id(s.mem_defs[0]) for s in stores}
    assert len(names) == 2
    versions = {s.mem_defs[0].version for s in stores}
    assert 0 not in versions


def test_loop_memphi_at_header():
    module, func = simple_loop()
    func, _ = _build(module, "loop")
    header = func.find_block("header")
    phis = list(header.mem_phis())
    assert len(phis) == 1
    phi = phis[0]
    body_store = next(i for i in func.instructions() if isinstance(i, I.Store))
    incoming = {b.name: n for b, n in phi.incoming}
    assert incoming["entry"].is_entry
    assert incoming["body"] is body_store.mem_defs[0]
    # The load in the body reads the header phi's name.
    load = next(i for i in func.instructions() if isinstance(i, I.Load))
    assert load.mem_uses[0] is phi.dst_name


def test_call_defines_fresh_names_and_uses_old():
    module = parse_module(
        """
        module m
        global @x = 0
        func @f() {
        entry:
          st @x, 1
          %r = call @g()
          %t = ld @x
          ret %t
        }
        func @g() {
        entry:
          ret
        }
        """
    )
    func, _ = _build(module, "f")
    call = next(i for i in func.instructions() if isinstance(i, I.Call))
    store = next(i for i in func.instructions() if isinstance(i, I.Store))
    load = next(i for i in func.instructions() if isinstance(i, I.Load))
    assert call.mem_uses == [store.mem_defs[0]]
    assert len(call.mem_defs) == 1
    assert load.mem_uses == [call.mem_defs[0]]


def test_figure1_web_shape():
    # The paper's Figure 1: x incremented in loop 1, foo() called in loop 2.
    module = parse_module(
        """
        module m
        global @x = 0
        func @main() {
        entry:
          jmp h1
        h1:
          %i = phi [entry: 0, b1: %i2]
          %c1 = lt %i, 100
          br %c1, b1, pre2
        b1:
          %t1 = ld @x
          %t2 = add %t1, 1
          st @x, %t2
          %i2 = add %i, 1
          jmp h1
        pre2:
          jmp h2
        h2:
          %j = phi [pre2: 0, b2: %j2]
          %c2 = lt %j, 10
          br %c2, b2, done
        b2:
          %r = call @foo()
          %j2 = add %j, 1
          jmp h2
        done:
          ret
        }
        func @foo() {
        entry:
          ret
        }
        """
    )
    func, mssa = _build(module, "main")
    x = module.get_global("x")
    # Names: x0 entry, phi at h1, store def, phi at h2, call def = 5 names,
    # exactly the paper's web {x0, x1, x2, x3, x4}.
    names = names_of_var(func, x)
    assert len(names) == 5
    h1_phis = list(func.find_block("h1").mem_phis())
    h2_phis = list(func.find_block("h2").mem_phis())
    assert len(h1_phis) == 1 and len(h2_phis) == 1


def test_rebuild_is_idempotent():
    module, func = simple_loop()
    model = AliasModel.conservative(module)
    build_memory_ssa(func, model)
    n_phis = sum(1 for i in func.instructions() if isinstance(i, I.MemPhi))
    build_memory_ssa(func, model)
    n_phis2 = sum(1 for i in func.instructions() if isinstance(i, I.MemPhi))
    assert n_phis == n_phis2
    verify_function(func, check_ssa=True, check_memssa=True)


def test_exposed_local_versioned():
    module = parse_module(
        """
        module m
        func @f() {
          local @y = 0
        entry:
          %p = addr @y
          st @y, 3
          stp %p, 4
          %t = ld @y
          ret %t
        }
        """
    )
    func, _ = _build(module, "f")
    store = next(i for i in func.instructions() if isinstance(i, I.Store))
    pstore = next(i for i in func.instructions() if isinstance(i, I.PtrStore))
    load = next(i for i in func.instructions() if isinstance(i, I.Load))
    # Chi: the pointer store uses the singleton store's name and defines a
    # fresh one, which the load then reads.
    assert pstore.mem_uses == [store.mem_defs[0]]
    assert load.mem_uses == [pstore.mem_defs[0]]


def test_untouched_variable_gets_no_phis():
    module = parse_module(
        """
        module m
        global @x = 0
        global @quiet = 0
        func @f() {
        entry:
          %c = ld @x
          br %c, a, b
        a:
          st @x, 1
          jmp join
        b:
          st @x, 2
          jmp join
        join:
          ret
        }
        """
    )
    func, _ = _build(module, "f")
    for phi in (i for i in func.instructions() if isinstance(i, I.MemPhi)):
        assert phi.var.name == "x"  # @quiet has no defs, hence no phis
