"""The interpreter's source tier: hot IR functions compiled to Python.

Tiering policy: DESIGN.md §2.  A run without a profile compiles a
function once it has run :data:`_TIER_UP` classic steps per instruction.
A run given each function's profiled steps (a re-execution of a
profiled program) decides at a function's first call: it compiles it
then, in the form that can continue a classic activation, when its
steps reach :data:`_BREAK_EVEN`, and otherwise keeps it classic.  A run
looks each generated text up in the :class:`CodeObjects` it is given
before compiling it, so runs that share one reuse each other's code.

Registers become locals, blocks the arms of an integer ``while True``
dispatch, phis parallel assignments on edges.  Block entries count
``C[k] += 1`` and check a local copy of ``result.steps`` against the
limit (so a limit error can come a block early); other counters are
derived as Σ block count × static count.
Every other check keeps the classic loop's exception type and message.

Integer operands are checked only in registers that can hold a non-int.
A register is a known int unless it is a parameter or some definition
can yield a pointer: ``addr``, ``elem``, ``ld`` and ``ldp`` (a scalar
cell can hold a pointer), ``lda`` on a scalar, or a copy or phi of such
a register.  Arithmetic, calls (returns are checked, externals go
through ``int()``) and ``lda`` on an array (its cells only take checked
ints) cannot.  A tier-up restores only the registers some block reads
before defining them; every other read follows a definition in its
block.  ``div`` and ``rem`` by a positive constant are inline; other
divisors go through truncating helpers.
"""

from __future__ import annotations

import math
import re
import traceback
from functools import partial
from typing import Dict, List, Optional, Set

from repro.ir import instructions as I
from repro.ir.function import Function
from repro.ir.values import Const, Undef, VReg
from repro.profile.interp import (
    InterpreterError,
    InterpreterLimitError,
    Pointer,
    _bounds_check,
)

#: Classic-tier steps per instruction before a function is compiled.
_TIER_UP = 10

#: Profiled steps from which a run given a profile compiles a function
#: at its first call.  Below it, compiling costs more than it saves:
#: generated programs re-executed slower at 300 than with no profile,
#: the proxies slower from 1,000 up (sweep: docs/PERFORMANCE.md).
_BREAK_EVEN = 600

#: Operations counted as block count × static count, by result counter.
_COUNTED = {
    I.Load: "loads",
    I.Store: "stores",
    I.PtrLoad: "ptr_loads",
    I.PtrStore: "ptr_stores",
    I.ArrayLoad: "array_loads",
    I.ArrayStore: "array_stores",
    I.Call: "calls",
    I.Copy: "copies",
}

# Operand kinds: the class a generated check tests for, or none.
_INT, _PTR, _ANY = "int", "P", ""

# The local an UnboundLocalError names, on Python 3.9 ("local variable 'r3'
# referenced before assignment") through 3.13 ("cannot access local ...").
_LOCAL_NAME = re.compile(r"'r(\d+)'")


class CodeObjects(dict):
    """Code objects keyed by ``(function name, source text)``, handed
    from run to run within one caller.  The name is part of the key
    because :meth:`TieredRun.unassigned` tells units apart by code
    object.  ``compiled`` and ``reused`` count misses and hits."""

    compiled = reused = 0


def profiled_steps(run) -> Dict[str, int]:
    """Each function's steps in ``run``, an :class:`ExecutionResult`:
    Σ block count × instructions per block run.  They sum to
    ``run.steps``."""
    steps: Dict[str, int] = {}
    for block, count in run.block_counts.items():
        name = block.function.name
        steps[name] = steps.get(name, 0) + count * len(_executed(block))
    return steps


def run_tiered(interp, result, globals_store, function: Function, args) -> None:
    """Run ``function`` tiered, recording into ``result``; the units are
    dropped on the way out, their code objects kept in
    ``interp.code_objects`` if given."""
    tiers = TieredRun if interp.profiled_steps is None else ProfiledRun
    run = tiers(interp, result, globals_store)
    try:
        result.return_value = run.call(function, list(args), 0)
        run.finish()
    except UnboundLocalError as exc:
        error = run.unassigned(exc)
        if error is None:
            raise
        raise error from None
    finally:
        run.units.clear()


class TieredRun:
    """One tiered run: the call dispatcher, tier-up policy and units."""

    def __init__(self, interp, result, globals_store) -> None:
        self.interp, self.result, self.globals_store = interp, result, globals_store
        self.code = interp.code_objects
        if self.code is None:
            self.code = CodeObjects()
        self.units: Dict[Function, _Unit] = {}
        #: Function -> classic-tier steps left before it is compiled, as
        #: of the start of its innermost running classic activation.
        self.budgets: Dict[Function, float] = {}
        #: Steps run by callees of the innermost classic activation.
        self.child = 0
        #: ``result.steps`` at the start of each running classic activation.
        self.starts: List[int] = []

    def call(self, function: Function, args: List[object], depth: int) -> int:
        result = self.result
        unit = self.units.get(function)
        if unit is None:
            if function not in self.budgets:
                size = sum(len(block.instructions) for block in function.blocks)
                self.budgets[function] = _TIER_UP * size
            if self.budgets[function] <= 0:
                unit = self._compile(function, osr=False)
        outer, start = self.child, result.steps
        if unit is None:
            self.child = 0
            self.starts.append(start)
            tier_at = start + self.budgets[function]  # earliest possible
            value = self.interp._call(function, args, self, depth, tier_at)
            self.starts.pop()
            self.budgets[function] -= result.steps - start - self.child
        else:
            limit = self.interp.max_depth
            if depth > limit:
                raise InterpreterLimitError(
                    f"recursion deeper than {limit}", depth=depth
                )
            value = unit.fn(args, depth)
        self.child = outer + result.steps - start
        return value

    def tier_up(self, function: Function, block, env, frame_store, depth: int):
        """Offered by a classic activation of ``function`` at the entry of
        ``block``, after its phis: ``(True, return value)`` if it finished
        in the source tier, else ``(False, step count to offer again at)``."""
        result = self.result
        unit = self.units.get(function)
        if unit is None:
            own = result.steps - self.starts[-1] - self.child
            left = self.budgets[function] - own
            if left > 0:
                return False, result.steps + left
            unit = self._compile(function, osr=True)
        if unit is None or not unit.osr:
            return False, math.inf
        outer, start = self.child, result.steps
        value = unit.fn(None, depth, env, frame_store, unit.index[block])
        self.child = outer + result.steps - start
        return True, value

    def _compile(self, function: Function, osr: bool) -> Optional[_Unit]:
        unit = _Unit(self, function, osr)
        try:
            unit.translate()
        except KeyError:  # an edge leaves the function: it stays classic
            self.budgets[function] = math.inf
            return None
        text = "\n".join(unit.lines) + "\n"
        code = self.code.get((function.name, text))
        if code is None:
            code = compile(text, f"<ir @{function.name}>", "exec")
            self.code[function.name, text] = code
            self.code.compiled += 1
        else:
            self.code.reused += 1
        exec(code, unit.namespace)
        unit.fn, unit.lines = unit.namespace.pop("F"), []  # no F <-> globals cycle
        self.units[function] = unit
        return unit

    def limit(self, steps: int) -> None:
        self.result.steps = steps
        max_steps = self.interp.max_steps
        raise InterpreterLimitError(f"exceeded {max_steps} steps", steps=steps)

    def unassigned(self, exc: UnboundLocalError) -> Optional[InterpreterError]:
        """The classic loop's error for a register read before any
        assignment, or ``None`` if ``exc`` was not raised by a unit."""
        frame = list(traceback.walk_tb(exc.__traceback__))[-1][0]
        match = _LOCAL_NAME.search(str(exc))
        for unit in self.units.values():
            if match and frame.f_code is unit.fn.__code__:
                register = list(unit.registers)[int(match.group(1))]
                return InterpreterError(f"read of unassigned register {register}")
        return None

    def finish(self) -> None:
        """Fold the units' block counts and derived counters into the run."""
        result = self.result
        block_counts = result.block_counts
        for unit in self.units.values():
            for block, count in zip(unit.function.blocks, unit.counts):
                if count:
                    block_counts[block] = block_counts.get(block, 0) + count
                    for inst in _executed(block):
                        name = _COUNTED.get(type(inst))
                        if name:
                            setattr(result, name, getattr(result, name) + count)


class ProfiledRun(TieredRun):
    """A tiered run given each function's profiled steps
    (``interp.profiled_steps``): a function's tier is fixed at its first
    call, so no budget is kept and no activation tiers up."""

    def call(self, function: Function, args: List[object], depth: int) -> int:
        unit = self.units.get(function)
        if unit is None:
            if function not in self.budgets:  # its first call
                self.budgets[function] = math.inf
                if self.interp.profiled_steps.get(function.name, 0) >= _BREAK_EVEN:
                    unit = self._compile(function, osr=True)
            if unit is None:
                return self.interp._call(function, args, self, depth)
        limit = self.interp.max_depth
        if depth > limit:
            raise InterpreterLimitError(f"recursion deeper than {limit}", depth=depth)
        return unit.fn(args, depth)


def _check(raw, cls):
    if isinstance(raw, cls):
        return raw
    kind = "integer" if cls is int else "pointer"
    raise InterpreterError(f"expected {kind}, got {raw!r}")


def _fail(error, message, *evaluated):
    # Called with the operands the classic loop reads before it raises.
    raise error(message)


def _div(a: int, b: int) -> int:
    """``div``: truncates toward zero; 0 for a zero divisor."""
    if not b:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _rem(a: int, b: int) -> int:
    """``rem``: ``a - b * div(a, b)``, so it takes the dividend's sign."""
    if not b:
        return 0
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


_HELPERS = {
    "CI": partial(_check, cls=int),
    "CP": partial(_check, cls=Pointer),
    "FAIL": _fail,
    "IE": InterpreterError,
    "DIV": _div,
    "REM": _rem,
    "BOUNDS": _bounds_check,
    "P": Pointer,
}

_BINOPS = {
    "add": "{} + {}",
    "sub": "{} - {}",
    "mul": "{} * {}",
    "div": "DIV({}, {})",
    "rem": "REM({}, {})",
    "and": "{} & {}",
    "or": "{} | {}",
    "xor": "{} ^ {}",
    "shl": "{} << ({} & 63)",
    "shr": "{} >> ({} & 63)",
    "lt": "1 if {} < {} else 0",
    "le": "1 if {} <= {} else 0",
    "gt": "1 if {} > {} else 0",
    "ge": "1 if {} >= {} else 0",
    "eq": "1 if {} == {} else 0",
    "ne": "1 if {} != {} else 0",
}
_UNOPS = {"neg": "-{}", "not": "1 if {} == 0 else 0", "bnot": "~{}"}
# Truncating division of dividend {0} by a constant {2} > 0.  The sign
# test {1} runs first: it is the dividend, or binds its checked form to t.
_BY_POSITIVE = {
    "div": "-(-{0} // {2}) if {1} < 0 else {0} // {2}",
    "rem": "-(-{0} % {2}) if {1} < 0 else {0} % {2}",
}


class _Unit:
    """One IR function's Python source, then function ``fn`` and counts."""

    def __init__(self, run: TieredRun, function: Function, osr: bool) -> None:
        self.run, self.function, self.lines, self.indent = run, function, [], 0
        self.osr = osr  # whether fn can continue a classic activation
        self.index = {block: k for k, block in enumerate(function.blocks)}
        self.counts = [0] * len(function.blocks)
        self.namespace: Dict[str, object] = dict(
            _HELPERS,
            C=self.counts,
            R=run.result,
            OUT=run.result.output.append,
            CALL=run.call,
            LIMIT=run.limit,
        )
        self.bound: Dict[int, str] = {}
        self.frame = {id(v): "" for v in function.frame_vars.values()}
        registers = self.registers = {p: f"r{i}" for i, p in enumerate(function.params)}
        for block in function.blocks:
            for inst in block.instructions:
                if inst.dst is not None:
                    registers.setdefault(inst.dst, f"r{len(registers)}")
        self.checked: Dict[VReg, str] = {}  # checked earlier in this block
        self.ints = _known_ints(function)
        # Built here: translate() turns any KeyError into "stays classic".
        self.exposed = _upward_exposed(function)

    def out(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def bind(self, obj: object, prefix: str) -> str:
        name = self.bound.get(id(obj))
        if name is None:
            name = self.bound[id(obj)] = f"{prefix}{len(self.bound)}"
            self.namespace[name] = obj
        return name

    def cells(self, var) -> Optional[str]:
        """The name of ``var``'s cells; ``None`` if it has none."""
        if id(var) in self.frame:
            self.frame[id(var)] = f"f{self.bind(var, 'V')}"
            return self.frame[id(var)]
        cells = self.run.globals_store.get(id(var))
        return None if cells is None else self.bind(cells, "G")

    def value(self, v, kind: str = _ANY) -> str:
        """``v`` as an expression; ``kind`` adds the classic type check."""
        if isinstance(v, (Const, Undef)):
            literal = str(v.value) if isinstance(v, Const) else "0"
            return f"CP({literal})" if kind == _PTR else literal
        if not isinstance(v, VReg):
            return f"FAIL(IE, {f'cannot evaluate {v!r}'!r})"
        name = self.registers.get(v)
        if name is None:
            return f"FAIL(IE, {f'read of unassigned register {v}'!r})"
        if kind == _ANY or self.checked.get(v) == kind:
            return name
        if kind == _INT and v in self.ints:  # nothing to check
            return name
        self.checked[v] = kind
        checker = "CI" if kind == _INT else "CP"
        return f"({name} if {name}.__class__ is {kind} else {checker}({name}))"

    def fail(self, message: str, *operands: str, error: str = "IE") -> None:
        self.out(f"FAIL({', '.join([error, repr(message), *operands])})")

    def translate(self) -> None:
        """Emit ``F``; KeyError if an edge leaves the function's blocks."""
        function = self.function
        self.indent = 2
        self.dispatch(0, len(function.blocks))
        body, self.lines, self.indent = self.lines, [], 0
        self.out("def F(A, depth, E=None, FS=None, K=0):")
        self.out("    if E is None:")
        self.out("        t = len(A)")
        for i, param in enumerate(function.params):
            self.out(f"        {self.registers[param]} = A[{i}] if t > {i} else 0")
        for name in filter(None, self.frame.values()):
            self.out(f"        {name} = {name[1:]}.initial_cells()")
        if _leading_phis(function.entry):
            self.out("        raise AssertionError('phi in entry block')")
        self.out("        k = 0")  # the entry block is the first
        if self.osr:  # continue a classic activation: its frame and registers
            self.out("    else:")
            for reg, name in self.registers.items():
                if reg in self.exposed:
                    key = self.bind(reg, "V")
                    self.out(f"        if {key} in E: {name} = E[{key}]")
            for key, name in self.frame.items():
                if name:
                    self.out(f"        {name} = FS[{key}]")
            self.out("        k = K")
        self.out("    s = R.steps")
        self.out("    while True:")
        self.lines += body
        if self.registers:  # never runs, but makes every register a local
            self.out(f"    {' = '.join(self.registers.values())} = None")

    def dispatch(self, lo: int, hi: int) -> None:
        """A balanced ``if k < mid`` tree over blocks ``lo..hi-1``."""
        if hi - lo == 1:
            self.block(self.function.blocks[lo])
        else:
            mid = (lo + hi) // 2
            self.nested(f"if k < {mid}:", self.dispatch, lo, mid)
            self.nested("else:", self.dispatch, mid, hi)

    def nested(self, head: str, emit, *args) -> None:
        self.out(head)
        self.indent += 1
        emit(*args)
        self.indent -= 1

    def block(self, block) -> None:
        k = self.index[block]
        body = _executed(block)
        self.checked.clear()
        self.out(f"C[{k}] += 1")
        if body:
            self.out(f"s += {len(body)}")
            self.out(f"if s > {self.run.interp.max_steps}: LIMIT(s)")
        for inst in body:
            if not self.instruction(block, inst):
                return
            self.checked.pop(inst.dst, None)
        self.fail(f"block {block.name} fell through")

    def edge(self, source, target) -> None:
        """The phi moves for ``source -> target``, then the jump."""
        dsts, values = [], []
        for phi in target.instructions[: _leading_phis(target)]:
            if isinstance(phi, I.Phi):
                try:
                    incoming = phi.value_for(source)
                except KeyError as exc:
                    self.fail(exc.args[0], *values, error="KeyError")
                    return
                dsts.append(self.registers[phi.dst])
                values.append(self.value(incoming))
        if dsts:
            self.out(f"{', '.join(dsts)} = {', '.join(values)}")
        self.out(f"k = {self.index[target]}")

    def instruction(self, block, inst) -> bool:
        """Emit ``inst``; False once control cannot fall to the next one."""
        out, value = self.out, self.value
        dst = self.registers.get(inst.dst)
        if isinstance(inst, I.Copy):
            out(f"{dst} = {value(inst.src)}")
        elif isinstance(inst, (I.BinOp, I.UnOp)):
            binary = isinstance(inst, I.BinOp)
            operands = [inst.lhs, inst.rhs] if binary else [inst.src]
            args = [value(v, _INT) for v in operands]
            template = (_BINOPS if binary else _UNOPS).get(inst.op)
            if template is None:
                kind = "binary" if binary else "unary"
                self.fail(f"unknown {kind} op {inst.op}", *args)
                return False
            inline = _BY_POSITIVE.get(inst.op)
            if inline and isinstance(inst.rhs, Const) and inst.rhs.value > 0:
                test = dividend = args[0]
                if dividend.startswith("("):  # checked: check once, read t
                    test, dividend = f"(t := {dividend})", "t"
                template, args = inline, [dividend, test, args[1]]
            out(f"{dst} = {template.format(*args)}")
        elif isinstance(inst, (I.Load, I.Store, I.AddrOf)):
            cells = self.cells(inst.var)
            if cells is None:
                # The classic loop evaluates a store's value first.
                stored = [value(inst.value)] if isinstance(inst, I.Store) else []
                self.fail(f"variable @{inst.var.name} has no storage", *stored)
                return False
            if isinstance(inst, I.Load):
                out(f"{dst} = {cells}[0]")
            elif isinstance(inst, I.Store):
                out(f"{cells}[0] = {value(inst.value)}")
            else:
                out(f"{dst} = P({cells})")
        elif isinstance(inst, (I.Elem, I.ArrayLoad, I.ArrayStore)):
            index = value(inst.index, _INT)
            cells = self.cells(inst.array)
            if cells is None:
                self.fail(f"variable @{inst.array.name} has no storage", index)
                return False
            out(f"t = {index}")
            array = self.bind(inst.array, "V")
            size = max(inst.array.size, 0)  # cell lists never change length
            out(f"if not 0 <= t < {size}: BOUNDS({array}, t, {cells})")
            if isinstance(inst, I.Elem):
                out(f"{dst} = P({cells}, t)")
            elif isinstance(inst, I.ArrayLoad):
                out(f"{dst} = {cells}[t]")
            else:
                out(f"{cells}[t] = {value(inst.value, _INT)}")
        elif isinstance(inst, (I.PtrLoad, I.PtrStore)):
            out(f"t = {value(inst.ptr, _PTR)}")
            if isinstance(inst, I.PtrLoad):
                out(f"{dst} = t.cells[t.index]")
            else:
                out(f"t.cells[t.index] = {value(inst.value, _INT)}")
        elif isinstance(inst, I.Call):
            return self.call(inst, dst)
        elif isinstance(inst, I.DummyAliasedLoad):
            pass  # no runtime effect by construction
        elif isinstance(inst, I.Print):
            out(f"OUT(({''.join(value(v, _INT) + ', ' for v in inst.operands)}))")
        elif isinstance(inst, I.Jump):
            self.edge(block, inst.target)
            return False
        elif isinstance(inst, I.CondBr):
            self.nested(f"if {value(inst.cond, _INT)}:", self.edge, block, inst.if_true)
            self.nested("else:", self.edge, block, inst.if_false)
            return False
        elif isinstance(inst, I.Ret):
            out("R.steps = s")
            out(f"return {'0' if inst.value is None else value(inst.value, _INT)}")
            return False
        else:
            self.fail(f"cannot execute {type(inst).__name__}")
            return False
        return True

    def call(self, inst, dst: Optional[str]) -> bool:
        args = ", ".join(self.value(a) for a in inst.operands)
        target = "" if dst is None else f"{dst} = "
        callee = self.run.interp.module.functions.get(inst.callee)
        if callee is not None:
            self.out("R.steps = s")
            self.out(f"{target}CALL({self.bind(callee, 'F')}, [{args}], depth + 1)")
            self.out("s = R.steps")
        elif inst.callee in self.run.interp.externals:
            external = self.bind(self.run.interp.externals[inst.callee], "X")
            self.out(f"t = {external}({args})")
            if dst is not None:
                self.out(f"{dst} = 0 if t is None else int(t)")
        else:
            self.fail(f"unknown callee @{inst.callee}", *([args] if args else []))
            return False
        return True


def _known_ints(function: Function) -> Set[VReg]:
    """The registers that can only ever hold an int: the largest set of
    non-parameters each of whose definitions yields one, given the set."""
    defs: Dict[VReg, List[I.Instruction]] = {}
    for block in function.blocks:
        for inst in block.instructions:
            if inst.dst is not None:
                defs.setdefault(inst.dst, []).append(inst)
    known = set(defs).difference(function.params)

    def yields_int(inst) -> bool:
        if isinstance(inst, (I.BinOp, I.UnOp, I.Call)):  # calls check or int()
            return True
        if isinstance(inst, I.ArrayLoad):  # ``lda`` on a scalar reads its cell
            return not inst.array.is_scalar
        if isinstance(inst, (I.Copy, I.Phi)):
            operands = inst.operands
            return all(isinstance(v, (Const, Undef)) or v in known for v in operands)
        return False

    while True:
        dropped = {reg for reg in known if not all(map(yields_int, defs[reg]))}
        if not dropped:
            return known
        known -= dropped


def _upward_exposed(function: Function) -> Set[VReg]:
    """Registers some block reads before a non-phi definition in it: the
    only ones a tier-up can find live.  A phi's incoming value is read at
    the end of its predecessor; a phi's own block has already run it."""
    exposed: Set[VReg] = set()
    local: Dict[object, Set[VReg]] = {}
    for block in function.blocks:
        defined = local[block] = set()
        for inst in _executed(block):
            exposed.update(
                v for v in inst.operands if isinstance(v, VReg) and v not in defined
            )
            if inst.dst is not None:
                defined.add(inst.dst)
    for block in function.blocks:
        for phi in block.instructions[: _leading_phis(block)]:
            if isinstance(phi, I.Phi):
                for pred, v in phi.incoming:
                    if isinstance(v, VReg) and v not in local.get(pred, ()):
                        exposed.add(v)
    return exposed


def _leading_phis(block) -> int:
    """How many leading phi/memory-phi instructions ``block`` has."""
    n = 0
    for inst in block.instructions:
        if not isinstance(inst, (I.Phi, I.MemPhi)):
            break
        n += 1
    return n


def _executed(block) -> List[I.Instruction]:
    """What one run of ``block`` executes unless something raises: the
    instructions after its phis, up to the first terminator."""
    body = block.instructions[_leading_phis(block) :]
    for i, inst in enumerate(body):
        if isinstance(inst, (I.Jump, I.CondBr, I.Ret)):
            return body[: i + 1]
    return body
