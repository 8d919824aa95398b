"""A deterministic IR interpreter.

Semantics:

* integers are unbounded Python ints; ``div``/``rem`` truncate toward
  zero and yield 0 for a zero divisor (total semantics keep random
  programs well-defined for property-based testing);
* shift amounts are masked to 0..63;
* comparison results are 0/1; branch conditions treat nonzero as true;
* ``undef`` reads as 0 (the front end zero-initializes locals anyway);
* pointers are (cells, index) views onto one-cell scalar boxes or array
  cell lists; arithmetic on pointers is not representable in the IR;
* phis in a block are evaluated simultaneously from the edge just taken.

The interpreter works on any IR the verifier accepts — pre-SSA, SSA,
memory-SSA-annotated, or post-phi-elimination — because memory
annotations carry no runtime meaning.  It counts executed singleton
loads/stores and per-block frequencies, which is everything Tables 1 and
2 need.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Const, Undef, Value, VReg

if TYPE_CHECKING:
    from repro.profile.codegen import CodeObjects


#: The default step budget of every run: the interpreter's, the
#: pipeline's, and the largest ``max_steps`` a service job may ask for.
MAX_STEPS = 50_000_000


class InterpreterError(RuntimeError):
    """Raised on runtime errors: unknown callee, step/recursion budget
    exhaustion, out-of-bounds array access."""


class InterpreterLimitError(InterpreterError):
    """A step or recursion budget was exhausted.

    A distinct subclass so drivers can treat budget exhaustion as a
    recoverable condition (fall back to the static profile estimator)
    while genuine runtime errors still propagate."""

    def __init__(self, message: str, steps: int = 0, depth: int = 0) -> None:
        super().__init__(message)
        self.steps = steps
        self.depth = depth


class Pointer:
    """A runtime pointer: a view onto a cell list."""

    __slots__ = ("cells", "index")

    def __init__(self, cells: List[int], index: int = 0) -> None:
        self.cells = cells
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pointer({self.cells!r}[{self.index}])"


class ExecutionResult:
    """Everything one program run produced and cost."""

    def __init__(self) -> None:
        #: Printed tuples, in order — the observable behaviour.
        self.output: List[Tuple[int, ...]] = []
        self.return_value: int = 0
        #: Executions per basic block (the profile), keyed by block object.
        self.block_counts: Dict[BasicBlock, int] = {}
        #: Dynamic counts of executed operations.
        self.loads = 0          # singleton loads
        self.stores = 0         # singleton stores
        self.ptr_loads = 0
        self.ptr_stores = 0
        self.array_loads = 0
        self.array_stores = 0
        self.calls = 0
        self.copies = 0
        self.steps = 0

    def globals_snapshot(self) -> Dict[str, int]:
        return dict(self._globals_final)

    _globals_final: Dict[str, int] = {}


class Interpreter:
    """``compiled=True`` (the default) runs tiered: functions start in the
    classic loop below and move to Python source once hot
    (:mod:`repro.profile.codegen`).  Both tiers give the same outputs,
    steps, counters, profiles and errors, except that a step-limit error
    can come up to one block earlier.  ``compiled=False`` runs only the
    classic loop: the executable spec the tiered engine is tested against.

    Two arguments let a tiered run build on an earlier run of the same
    program.  ``profiled_steps`` (function name -> steps, from
    :func:`~repro.profile.codegen.profiled_steps`) fixes each function's
    tier at its first call instead of tiering up on the way.
    ``code_objects`` (a :class:`~repro.profile.codegen.CodeObjects`) is
    looked up before compiling a unit and receives every unit compiled.
    Neither changes what a run observes."""

    def __init__(
        self,
        module: Module,
        max_steps: int = MAX_STEPS,
        max_depth: int = 200,
        externals: Optional[Dict[str, Callable[..., int]]] = None,
        compiled: bool = True,
        profiled_steps: Optional[Dict[str, int]] = None,
        code_objects: Optional[CodeObjects] = None,
    ) -> None:
        self.module = module
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.externals = externals or {}
        self.compiled = compiled
        self.profiled_steps = profiled_steps
        self.code_objects = code_objects

    def run(self, entry: str = "main", args: Sequence[int] = ()) -> ExecutionResult:
        result = ExecutionResult()
        globals_store: Dict[int, List[int]] = {}
        for var in self.module.globals.values():
            globals_store[id(var)] = var.initial_cells()

        function = self.module.functions.get(entry)
        if function is None:
            raise InterpreterError(f"no entry function {entry!r}")
        if self.compiled:
            from repro.profile.codegen import run_tiered

            run_tiered(self, result, globals_store, function, args)
        else:
            run = _ClassicRun(self, result, globals_store)
            result.return_value = self._call(function, list(args), run, 0)
        result._globals_final = {
            var.name: globals_store[id(var)][0]
            for var in self.module.globals.values()
            if var.is_scalar
        }
        return result

    # -- execution -------------------------------------------------------

    def _call(self, function, args, run, depth: int, tier_at=math.inf) -> int:
        """Run one activation of ``function`` in the classic loop; calls go
        through ``run.call``.  Once ``result.steps`` reaches ``tier_at``,
        block entries offer it to ``run.tier_up`` to finish as source."""
        if depth > self.max_depth:
            raise InterpreterLimitError(
                f"recursion deeper than {self.max_depth}", depth=depth
            )

        frame_store: Dict[int, List[int]] = {}
        for var in function.frame_vars.values():
            frame_store[id(var)] = var.initial_cells()
        globals_store = run.globals_store
        result = run.result

        def cells_of(var) -> List[int]:
            if id(var) in frame_store:
                return frame_store[id(var)]
            if id(var) in globals_store:
                return globals_store[id(var)]
            raise InterpreterError(f"variable @{var.name} has no storage")

        env: Dict[VReg, object] = {}
        for i, param in enumerate(function.params):
            env[param] = args[i] if i < len(args) else 0

        def value(v: Value) -> object:
            if isinstance(v, VReg):
                if v not in env:
                    raise InterpreterError(f"read of unassigned register {v}")
                return env[v]
            if isinstance(v, Const):
                return v.value
            if isinstance(v, Undef):
                return 0
            raise InterpreterError(f"cannot evaluate {v!r}")

        def as_int(v: Value) -> int:
            raw = value(v)
            if not isinstance(raw, int):
                raise InterpreterError(f"expected integer, got {raw!r}")
            return raw

        def as_ptr(v: Value) -> Pointer:
            raw = value(v)
            if not isinstance(raw, Pointer):
                raise InterpreterError(f"expected pointer, got {raw!r}")
            return raw

        max_steps = self.max_steps
        block_counts = result.block_counts
        block = function.entry
        prev_block: Optional[BasicBlock] = None
        while True:
            # Phis first, evaluated in parallel against the incoming edge.
            phi_updates: List[Tuple[VReg, object]] = []
            index = 0
            for inst in block.instructions:
                if isinstance(inst, I.Phi):
                    assert prev_block is not None, "phi in entry block"
                    phi_updates.append((inst.dst, value(inst.value_for(prev_block))))
                elif not isinstance(inst, I.MemPhi):
                    break
                index += 1
            for reg, val in phi_updates:
                env[reg] = val
            if result.steps >= tier_at:
                finished, out = run.tier_up(function, block, env, frame_store, depth)
                if finished:
                    return out
                tier_at = out
            block_counts[block] = block_counts.get(block, 0) + 1

            jumped = False
            for inst in block.instructions[index:]:
                result.steps += 1
                if result.steps > max_steps:
                    raise InterpreterLimitError(
                        f"exceeded {max_steps} steps", steps=result.steps
                    )

                if isinstance(inst, I.Copy):
                    env[inst.dst] = value(inst.src)
                    result.copies += 1
                elif isinstance(inst, I.BinOp):
                    env[inst.dst] = _binop(inst.op, as_int(inst.lhs), as_int(inst.rhs))
                elif isinstance(inst, I.UnOp):
                    env[inst.dst] = _unop(inst.op, as_int(inst.src))
                elif isinstance(inst, I.Jump):
                    prev_block, block = block, inst.target
                    jumped = True
                elif isinstance(inst, I.CondBr):
                    taken = inst.if_true if as_int(inst.cond) != 0 else inst.if_false
                    prev_block, block = block, taken
                    jumped = True
                elif isinstance(inst, I.Load):
                    env[inst.dst] = cells_of(inst.var)[0]
                    result.loads += 1
                elif isinstance(inst, I.Store):
                    # Pointer-typed locals may hold Pointer values until
                    # mem2reg promotes them to registers.
                    cells_of(inst.var)[0] = value(inst.value)
                    result.stores += 1
                elif isinstance(inst, I.AddrOf):
                    env[inst.dst] = Pointer(cells_of(inst.var))
                elif isinstance(inst, I.Elem):
                    idx = as_int(inst.index)
                    cells = cells_of(inst.array)
                    _bounds_check(inst.array, idx, cells)
                    env[inst.dst] = Pointer(cells, idx)
                elif isinstance(inst, I.PtrLoad):
                    ptr = as_ptr(inst.ptr)
                    env[inst.dst] = ptr.cells[ptr.index]
                    result.ptr_loads += 1
                elif isinstance(inst, I.PtrStore):
                    ptr = as_ptr(inst.ptr)
                    ptr.cells[ptr.index] = as_int(inst.value)
                    result.ptr_stores += 1
                elif isinstance(inst, I.ArrayLoad):
                    idx = as_int(inst.index)
                    cells = cells_of(inst.array)
                    _bounds_check(inst.array, idx, cells)
                    env[inst.dst] = cells[idx]
                    result.array_loads += 1
                elif isinstance(inst, I.ArrayStore):
                    idx = as_int(inst.index)
                    cells = cells_of(inst.array)
                    _bounds_check(inst.array, idx, cells)
                    cells[idx] = as_int(inst.value)
                    result.array_stores += 1
                elif isinstance(inst, I.Call):
                    result.calls += 1
                    operands = [value(a) for a in inst.operands]
                    callee = self.module.functions.get(inst.callee)
                    if callee is not None:
                        ret = run.call(callee, operands, depth + 1)
                    elif inst.callee in self.externals:
                        ret = self.externals[inst.callee](*operands)
                        ret = int(ret) if ret is not None else 0
                    else:
                        raise InterpreterError(f"unknown callee @{inst.callee}")
                    if inst.dst is not None:
                        env[inst.dst] = ret
                elif isinstance(inst, I.DummyAliasedLoad):
                    pass  # no runtime effect by construction
                elif isinstance(inst, I.Print):
                    result.output.append(tuple(as_int(v) for v in inst.operands))
                elif isinstance(inst, I.Ret):
                    return as_int(inst.value) if inst.value is not None else 0
                else:
                    raise InterpreterError(f"cannot execute {type(inst).__name__}")
                if jumped:
                    break
            if not jumped:
                raise InterpreterError(f"block {block.name} fell through")


class _ClassicRun:
    """A classic-only run: every call goes to the classic loop."""

    def __init__(self, interp, result, globals_store) -> None:
        self.interp, self.result, self.globals_store = interp, result, globals_store

    def call(self, function: Function, args: List[int], depth: int) -> int:
        return self.interp._call(function, args, self, depth)


def run_module(
    module: Module, entry: str = "main", args: Sequence[int] = (), **kwargs
) -> ExecutionResult:
    """Convenience wrapper: run ``module`` from ``entry``."""
    return Interpreter(module, **kwargs).run(entry, args)


def _bounds_check(array, idx: int, cells: List[int]) -> None:
    if not 0 <= idx < len(cells):
        raise InterpreterError(
            f"index {idx} out of bounds for @{array.name}[{len(cells)}]"
        )


def _binop(op: str, a: int, b: int) -> int:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            return 0
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if op == "rem":
        if b == 0:
            return 0
        return a - b * _binop("div", a, b)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << (b & 63)
    if op == "shr":
        return a >> (b & 63)
    if op == "lt":
        return int(a < b)
    if op == "le":
        return int(a <= b)
    if op == "gt":
        return int(a > b)
    if op == "ge":
        return int(a >= b)
    if op == "eq":
        return int(a == b)
    if op == "ne":
        return int(a != b)
    raise InterpreterError(f"unknown binary op {op}")


def _unop(op: str, a: int) -> int:
    if op == "neg":
        return -a
    if op == "not":
        return int(a == 0)
    if op == "bnot":
        return ~a
    raise InterpreterError(f"unknown unary op {op}")
