"""The instruction set.

Every instruction may carry, in addition to its register operands:

``mem_uses``
    Memory SSA names this instruction reads (or, for may-defs, whose old
    value it must observe).  Populated by memory-SSA construction
    (:mod:`repro.memory.memssa`); empty before that.

``mem_defs``
    Memory SSA names this instruction defines.

The paper distinguishes *singleton* references (``Load``/``Store``) from
*aliased* references (calls, pointer loads/stores).  Aliased references are
recognized via :attr:`Instruction.is_aliased_mem_op`.  Following HSSA-style
chi semantics — and slightly more conservatively than the paper, which
treats a pointer store as a pure definition — every may-def also carries a
``mem_uses`` entry for the incoming name of each may-defined variable, so
that partial promotion always flushes the register to memory before an
instruction that may (but need not) overwrite the location.  See DESIGN.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.ir.values import Value, VReg
from repro.memory.resources import MemName, MemoryVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.basicblock import BasicBlock

#: Binary operators with C-like semantics (division truncates toward zero;
#: division/remainder by zero yield 0 so that program semantics stay total,
#: which property-based tests rely on).
# fmt: off
BINARY_OPS = (
    "add", "sub", "mul", "div", "rem",
    "and", "or", "xor", "shl", "shr",
    "lt", "le", "gt", "ge", "eq", "ne",
)
# fmt: on

UNARY_OPS = ("neg", "not", "bnot")


class Instruction:
    """Base class for all instructions."""

    #: Subclasses that terminate a basic block set this to True.
    is_terminator = False

    def __init__(self) -> None:
        #: Owning block; set when the instruction is inserted.
        self.block: Optional["BasicBlock"] = None
        #: Register operands, in a fixed per-class order.
        self.operands: List[Value] = []
        #: Defined virtual register, if any.
        self.dst: Optional[VReg] = None
        #: Memory SSA names read (filled in by memory-SSA construction).
        self.mem_uses: List[MemName] = []
        #: Memory SSA names defined.
        self.mem_defs: List[MemName] = []

    # -- classification -------------------------------------------------

    @property
    def is_aliased_mem_op(self) -> bool:
        """True for calls and pointer references: the paper's *aliased*
        loads and stores, whose memory effects are uncertain."""
        return False

    @property
    def has_side_effects(self) -> bool:
        """True if the instruction must not be removed even when its
        results are unused."""
        return False

    @property
    def is_phi(self) -> bool:
        return False

    # -- operand manipulation -------------------------------------------

    def replace_operand(self, old: Value, new: Value) -> int:
        """Replace every register operand ``old`` with ``new``.

        Returns the number of replacements.  Works uniformly for plain
        instructions and phis (whose incoming values live in
        :attr:`Phi.incoming` as well as :attr:`operands`).
        """
        count = 0
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                count += 1
        return count

    def replace_mem_use(self, old: MemName, new: MemName) -> int:
        """Replace memory-use name ``old`` with ``new``; returns count."""
        count = 0
        for i, name in enumerate(self.mem_uses):
            if name is old:
                self.mem_uses[i] = new
                count += 1
        return count

    # -- bookkeeping ----------------------------------------------------

    def _set_dst(self, dst: Optional[VReg]) -> None:
        self.dst = dst
        if dst is not None:
            dst.def_inst = self

    def remove_from_block(self) -> None:
        """Unlink this instruction from its block."""
        if self.block is not None:
            self.block.instructions.remove(self)
            self.block = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.ir.printer import format_instruction

        return f"<{format_instruction(self)}>"


# ---------------------------------------------------------------------------
# Straight-line computation
# ---------------------------------------------------------------------------


class Copy(Instruction):
    """``dst = src`` — register copy.

    Register promotion rewrites loads into copies; a later copy-propagation
    pass removes them (Section 4.4: "These copy instructions are eliminated
    later").
    """

    def __init__(self, dst: VReg, src: Value) -> None:
        super().__init__()
        self._set_dst(dst)
        self.operands = [src]

    @property
    def src(self) -> Value:
        return self.operands[0]


class BinOp(Instruction):
    """``dst = op lhs, rhs`` for ``op`` in :data:`BINARY_OPS`."""

    def __init__(self, dst: VReg, op: str, lhs: Value, rhs: Value) -> None:
        super().__init__()
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self._set_dst(dst)
        self.op = op
        self.operands = [lhs, rhs]

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class UnOp(Instruction):
    """``dst = op src`` for ``op`` in :data:`UNARY_OPS`."""

    def __init__(self, dst: VReg, op: str, src: Value) -> None:
        super().__init__()
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        self._set_dst(dst)
        self.op = op
        self.operands = [src]

    @property
    def src(self) -> Value:
        return self.operands[0]


class Phi(Instruction):
    """``dst = phi [(pred_block, value), ...]`` — register phi.

    Incoming pairs are kept in :attr:`incoming`; :attr:`operands` mirrors
    the values so generic operand replacement works.
    """

    def __init__(
        self, dst: VReg, incoming: Sequence[Tuple["BasicBlock", Value]]
    ) -> None:
        super().__init__()
        self._set_dst(dst)
        self.incoming: List[Tuple["BasicBlock", Value]] = list(incoming)
        self.operands = [v for _, v in self.incoming]

    @property
    def is_phi(self) -> bool:
        return True

    def value_for(self, pred: "BasicBlock") -> Value:
        for block, value in self.incoming:
            if block is pred:
                return value
        raise KeyError(f"phi has no incoming value for block {pred.name}")

    def set_incoming(self, pred: "BasicBlock", value: Value) -> None:
        for i, (block, _) in enumerate(self.incoming):
            if block is pred:
                self.incoming[i] = (block, value)
                self._sync_operands()
                return
        self.incoming.append((pred, value))
        self._sync_operands()

    def remove_incoming(self, pred: "BasicBlock") -> None:
        self.incoming = [(b, v) for b, v in self.incoming if b is not pred]
        self._sync_operands()

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self.incoming = [(new if b is old else b, v) for b, v in self.incoming]

    def replace_operand(self, old: Value, new: Value) -> int:
        count = 0
        for i, (block, value) in enumerate(self.incoming):
            if value is old:
                self.incoming[i] = (block, new)
                count += 1
        self._sync_operands()
        return count

    def _sync_operands(self) -> None:
        self.operands = [v for _, v in self.incoming]


class MemPhi(Instruction):
    """A memory phi: joins SSA names of one :class:`MemoryVar`.

    The paper implements phi functions for memory resources as explicit phi
    instructions (Section 3); ``MemPhi`` is that instruction.  The target
    name is ``mem_defs[0]``; incoming names are in :attr:`incoming` and are
    mirrored into :attr:`mem_uses`.
    """

    def __init__(
        self,
        var: MemoryVar,
        dst_name: MemName,
        incoming: Sequence[Tuple["BasicBlock", MemName]],
    ) -> None:
        super().__init__()
        self.var = var
        self.mem_defs = [dst_name]
        dst_name.def_inst = self
        self.incoming: List[Tuple["BasicBlock", MemName]] = list(incoming)
        self._sync_mem_uses()

    @property
    def is_phi(self) -> bool:
        return True

    @property
    def dst_name(self) -> MemName:
        return self.mem_defs[0]

    def name_for(self, pred: "BasicBlock") -> MemName:
        for block, name in self.incoming:
            if block is pred:
                return name
        raise KeyError(f"memphi has no incoming name for block {pred.name}")

    def set_incoming(self, pred: "BasicBlock", name: MemName) -> None:
        for i, (block, _) in enumerate(self.incoming):
            if block is pred:
                self.incoming[i] = (block, name)
                self._sync_mem_uses()
                return
        self.incoming.append((pred, name))
        self._sync_mem_uses()

    def remove_incoming(self, pred: "BasicBlock") -> None:
        self.incoming = [(b, n) for b, n in self.incoming if b is not pred]
        self._sync_mem_uses()

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self.incoming = [(new if b is old else b, n) for b, n in self.incoming]

    def replace_mem_use(self, old: MemName, new: MemName) -> int:
        count = 0
        for i, (block, name) in enumerate(self.incoming):
            if name is old:
                self.incoming[i] = (block, new)
                count += 1
        self._sync_mem_uses()
        return count

    def _sync_mem_uses(self) -> None:
        self.mem_uses = [n for _, n in self.incoming]


# ---------------------------------------------------------------------------
# Memory access
# ---------------------------------------------------------------------------


class Load(Instruction):
    """``dst = ld [var]`` — a singleton load of a scalar memory location.

    After memory-SSA construction, ``mem_uses[0]`` is the SSA name of the
    reaching definition of ``var``.
    """

    def __init__(self, dst: VReg, var: MemoryVar) -> None:
        super().__init__()
        if not var.is_scalar:
            raise ValueError(f"singleton load of aggregate {var.name}")
        self._set_dst(dst)
        self.var = var


class Store(Instruction):
    """``st [var], value`` — a singleton store to a scalar memory location.

    After memory-SSA construction, ``mem_defs[0]`` is the fresh SSA name
    this store defines.  A singleton store fully overwrites the location,
    so it has no memory use.
    """

    def __init__(self, var: MemoryVar, value: Value) -> None:
        super().__init__()
        if not var.is_scalar:
            raise ValueError(f"singleton store to aggregate {var.name}")
        self.var = var
        self.operands = [value]

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def has_side_effects(self) -> bool:
        # A store is removable only via memory-SSA-aware dead store
        # elimination, not generic DCE; model it as side-effecting.
        return True


class AddrOf(Instruction):
    """``dst = addr var`` — take the address of a scalar memory variable."""

    def __init__(self, dst: VReg, var: MemoryVar) -> None:
        super().__init__()
        self._set_dst(dst)
        self.var = var
        var.address_taken = True


class Elem(Instruction):
    """``dst = elem array, index`` — address of an array element."""

    def __init__(self, dst: VReg, array: MemoryVar, index: Value) -> None:
        super().__init__()
        self._set_dst(dst)
        self.array = array
        array.address_taken = True
        self.operands = [index]

    @property
    def index(self) -> Value:
        return self.operands[0]


class PtrLoad(Instruction):
    """``dst = ldp ptr`` — load through a pointer: an *aliased load*.

    ``mem_uses`` holds one SSA name per scalar variable the pointer may
    reference, per the alias model.
    """

    def __init__(self, dst: VReg, ptr: Value) -> None:
        super().__init__()
        self._set_dst(dst)
        self.operands = [ptr]

    @property
    def ptr(self) -> Value:
        return self.operands[0]

    @property
    def is_aliased_mem_op(self) -> bool:
        return True


class PtrStore(Instruction):
    """``stp ptr, value`` — store through a pointer: an *aliased store*.

    May-defines every scalar variable in the pointer's points-to set:
    ``mem_defs`` holds a fresh name per such variable and ``mem_uses`` the
    corresponding incoming name (chi semantics; see the module docstring).
    """

    def __init__(self, ptr: Value, value: Value) -> None:
        super().__init__()
        self.operands = [ptr, value]

    @property
    def ptr(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]

    @property
    def is_aliased_mem_op(self) -> bool:
        return True

    @property
    def has_side_effects(self) -> bool:
        return True


class ArrayLoad(Instruction):
    """``dst = lda array, index`` — read an array element.

    Arrays are aggregate resources; array references neither use nor define
    scalar singleton resources, so promotion ignores them (they matter for
    aliasing only when a pointer may point into the array).
    """

    def __init__(self, dst: VReg, array: MemoryVar, index: Value) -> None:
        super().__init__()
        self._set_dst(dst)
        self.array = array
        self.operands = [index]

    @property
    def index(self) -> Value:
        return self.operands[0]


class ArrayStore(Instruction):
    """``sta array, index, value`` — write an array element."""

    def __init__(self, array: MemoryVar, index: Value, value: Value) -> None:
        super().__init__()
        self.array = array
        self.operands = [index, value]

    @property
    def index(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]

    @property
    def has_side_effects(self) -> bool:
        return True


class Call(Instruction):
    """``dst = call @callee(args...)`` — both an aliased load and an
    aliased store.

    The alias model decides which scalar variables the call may use and
    define; by default (matching the paper's stated assumption) a call may
    modify and use every global variable, plus any address-exposed local.
    """

    def __init__(self, dst: Optional[VReg], callee: str, args: Sequence[Value]) -> None:
        super().__init__()
        if dst is not None:
            self._set_dst(dst)
        self.callee = callee
        self.operands = list(args)

    @property
    def args(self) -> List[Value]:
        return list(self.operands)

    @property
    def is_aliased_mem_op(self) -> bool:
        return True

    @property
    def has_side_effects(self) -> bool:
        return True


class DummyAliasedLoad(Instruction):
    """A no-op aliased load inserted by promotion in an interval preheader.

    It carries a single ``mem_uses`` entry — the web's live-in resource —
    and tells the *enclosing* interval's promotion that memory must hold
    the variable's current value at this point (Section 4.4).  The final
    cleanup deletes every dummy load.
    """

    def __init__(self, name: MemName) -> None:
        super().__init__()
        self.var = name.var
        self.mem_uses = [name]

    @property
    def is_aliased_mem_op(self) -> bool:
        return True

    @property
    def has_side_effects(self) -> bool:
        # Must not be swept by generic DCE; promotion removes it itself.
        return True


class Print(Instruction):
    """``print values...`` — observable output, used as the semantics
    oracle's channel in differential tests."""

    def __init__(self, values: Sequence[Value]) -> None:
        super().__init__()
        self.operands = list(values)

    @property
    def values(self) -> List[Value]:
        return list(self.operands)

    @property
    def has_side_effects(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


class Jump(Instruction):
    """``jmp target``"""

    is_terminator = True

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__()
        self.targets: List["BasicBlock"] = [target]

    @property
    def target(self) -> "BasicBlock":
        return self.targets[0]


class CondBr(Instruction):
    """``br cond, if_true, if_false``"""

    is_terminator = True

    def __init__(
        self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock"
    ) -> None:
        super().__init__()
        self.operands = [cond]
        self.targets: List["BasicBlock"] = [if_true, if_false]

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def if_true(self) -> "BasicBlock":
        return self.targets[0]

    @property
    def if_false(self) -> "BasicBlock":
        return self.targets[1]


class Ret(Instruction):
    """``ret [value]`` — function return.

    After memory-SSA construction a ``Ret`` carries a ``mem_uses`` entry
    for every tracked variable's reaching name: a function's final stores
    to globals are externally observable, and these uses keep dead-store
    elimination honest about that (see DESIGN.md, "Observability at
    returns").
    """

    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__()
        self.operands = [value] if value is not None else []
        self.targets: List["BasicBlock"] = []

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    @property
    def has_side_effects(self) -> bool:
        return True

    @property
    def is_aliased_mem_op(self) -> bool:
        # A return observes every global (the caller may read them), so it
        # behaves exactly like an aliased load: promotion must flush a
        # promoted register to memory before it.
        return True


Terminator = Union[Jump, CondBr, Ret]
