"""IR and SSA verifier.

Checked invariants (progressively, depending on flags):

structure
    every block ends in exactly one terminator and contains none earlier;
    phi instructions lead their block; pred/succ lists are consistent;
    every referenced block belongs to the function; the entry block has no
    predecessors (passes that need a preheader rely on this).

register SSA (``check_ssa``)
    every virtual register has exactly one defining instruction, every use
    is dominated by its definition (phi uses are checked at the end of the
    corresponding predecessor), and phi incoming blocks match predecessors.

memory SSA (``check_memssa``)
    every memory name has exactly one definition (matching ``def_inst``),
    memphi incoming blocks match predecessors, and every memory use is
    dominated by its definition.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.analysis.dominance import DominatorTree
from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Const, Undef, VReg
from repro.memory.resources import MemName


class VerificationError(AssertionError):
    """Raised when the IR violates a checked invariant.

    Carries structured context so drivers (the transactional pipeline,
    fault-injection tests) can attribute the failure without parsing the
    message: ``function`` is the offending function's name, ``block`` the
    offending block's name when one is known, ``stage`` the checker group
    (``structure``, ``ssa``, or ``memssa``), and ``detail`` the bare
    message without the appended IR dump.
    """

    def __init__(
        self,
        message: str,
        function: Optional[str] = None,
        block: Optional[str] = None,
        stage: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.function = function
        self.block = block
        self.stage = stage
        self.detail = detail


def verify_module(
    module: Module, check_ssa: bool = False, check_memssa: bool = False
) -> None:
    for function in module.functions.values():
        verify_function(function, check_ssa=check_ssa, check_memssa=check_memssa)


def verify_function(
    function: Function,
    check_ssa: bool = False,
    check_memssa: bool = False,
    domtree: Optional[DominatorTree] = None,
) -> None:
    """Check ``function``'s invariants; raise :class:`VerificationError`.

    ``domtree`` is a dominator tree the caller already holds.  It is
    used only while the function still has the blocks and successor
    edges it was computed on (:meth:`DominatorTree.matches`); otherwise
    the verifier computes its own, so a stale tree can never vouch for
    the IR.
    """
    _check_structure(function)
    if not (check_ssa or check_memssa):
        return
    # Neither check mutates the IR, so one tree and one position map
    # serve both.
    if domtree is None or not domtree.matches(function):
        domtree = DominatorTree.compute(function)
    positions = _instruction_positions(function)
    if check_ssa:
        _check_register_ssa(function, domtree, positions)
    if check_memssa:
        _check_memory_ssa(function, domtree, positions)


def _fail(
    function: Function,
    message: str,
    block: Optional[BasicBlock] = None,
    stage: Optional[str] = None,
) -> None:
    from repro.ir.printer import print_function

    raise VerificationError(
        f"{function.name}: {message}\n{print_function(function)}",
        function=function.name,
        block=block.name if block is not None else None,
        stage=stage,
        detail=message,
    )


def _check_structure(function: Function) -> None:
    stage = "structure"
    blocks = set(function.blocks)
    if not function.blocks:
        _fail(function, "function has no blocks", stage=stage)
    if function.entry.preds:
        _fail(function, "entry block has predecessors", function.entry, stage)
    names = [b.name for b in function.blocks]
    if len(set(names)) != len(names):
        _fail(function, "duplicate block names", stage=stage)

    for block in function.blocks:
        if block.function is not function:
            _fail(
                function, f"block {block.name} has wrong function backref", block, stage
            )
        term = block.terminator
        if term is None:
            _fail(function, f"block {block.name} lacks a terminator", block, stage)
        for i, inst in enumerate(block.instructions):
            if inst.block is not block:
                _fail(
                    function,
                    f"instruction in {block.name} has wrong block backref",
                    block,
                    stage,
                )
            if inst.is_terminator and inst is not block.instructions[-1]:
                _fail(function, f"terminator not last in {block.name}", block, stage)
            if inst.is_phi and i > block.first_non_phi_index():
                _fail(function, f"phi after non-phi in {block.name}", block, stage)
        for target in term.targets:
            if target not in blocks:
                _fail(
                    function,
                    f"{block.name} targets foreign block {target.name}",
                    block,
                    stage,
                )
        for pred in block.preds:
            if pred not in blocks:
                _fail(
                    function, f"{block.name} has foreign pred {pred.name}", block, stage
                )
            pred_term = pred.terminator
            if pred_term is None or block not in pred_term.targets:
                _fail(
                    function,
                    f"stale pred edge {pred.name} -> {block.name}",
                    block,
                    stage,
                )
        if len(set(id(p) for p in block.preds)) != len(block.preds):
            _fail(function, f"duplicate preds on {block.name}", block, stage)

    # Inverse check: every terminator edge appears in the target's preds.
    for block in function.blocks:
        for succ in block.succs:
            if block not in succ.preds:
                _fail(
                    function,
                    f"missing pred edge {block.name} -> {succ.name}",
                    succ,
                    stage,
                )


def _check_register_ssa(
    function: Function,
    domtree: DominatorTree,
    positions: Dict[int, Tuple[BasicBlock, int]],
) -> None:
    defs: Dict[VReg, I.Instruction] = {}
    for inst in function.instructions():
        if inst.dst is not None:
            if inst.dst in defs:
                _fail(function, f"{inst.dst} defined more than once", inst.block, "ssa")
            defs[inst.dst] = inst
    for reg, inst in defs.items():
        if reg.def_inst is not inst:
            _fail(function, f"{reg} has stale def_inst backref", inst.block, "ssa")

    params = set(function.params)

    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, I.Phi):
                incoming_blocks = [b for b, _ in inst.incoming]
                if _as_id_set(incoming_blocks) != _as_id_set(block.preds):
                    _fail(
                        function,
                        f"phi {inst.dst} incoming blocks "
                        f"{[b.name for b in incoming_blocks]} != preds "
                        f"{[p.name for p in block.preds]} of {block.name}",
                        block,
                        "ssa",
                    )
                for pred, value in inst.incoming:
                    _check_reg_use(
                        function,
                        domtree,
                        positions,
                        defs,
                        params,
                        value,
                        use_block=pred,
                        use_pos=len(pred.instructions),
                        inst=inst,
                    )
            else:
                use_pos = positions[id(inst)][1]
                for value in inst.operands:
                    _check_reg_use(
                        function,
                        domtree,
                        positions,
                        defs,
                        params,
                        value,
                        use_block=block,
                        use_pos=use_pos,
                        inst=inst,
                    )


def _reg_use_site(inst: I.Instruction, use_block: BasicBlock) -> str:
    """Where a failing register use sits; built only for the message."""
    if isinstance(inst, I.Phi):
        return f"phi {inst.dst} from {use_block.name}"
    return f"use in {use_block.name}"


def _check_reg_use(
    function, domtree, positions, defs, params, value, use_block, use_pos, inst
) -> None:
    if isinstance(value, (Const, Undef)):
        return
    if value in params:
        return
    def_inst = defs.get(value)
    if def_inst is None:
        what = _reg_use_site(inst, use_block)
        _fail(function, f"{value} used but never defined ({what})", use_block, "ssa")
    def_block, def_pos = positions[id(def_inst)]
    if def_block is use_block:
        if def_pos >= use_pos:
            what = _reg_use_site(inst, use_block)
            _fail(
                function,
                f"{value} used before local definition ({what})",
                use_block,
                "ssa",
            )
    elif not domtree.dominates(def_block, use_block):
        what = _reg_use_site(inst, use_block)
        _fail(
            function,
            f"definition of {value} in {def_block.name} does not dominate "
            f"use in {use_block.name} ({what})",
            use_block,
            "ssa",
        )


def _check_memory_ssa(
    function: Function,
    domtree: DominatorTree,
    positions: Dict[int, Tuple[BasicBlock, int]],
) -> None:
    defs: Dict[MemName, I.Instruction] = {}
    entry_names: Set[MemName] = set()
    for inst in function.instructions():
        for name in inst.mem_defs:
            if name in defs:
                _fail(
                    function,
                    f"memory name {name} defined more than once",
                    inst.block,
                    "memssa",
                )
            defs[name] = inst
            if name.def_inst is not inst:
                _fail(
                    function,
                    f"memory name {name} has stale def_inst",
                    inst.block,
                    "memssa",
                )

    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, I.MemPhi):
                incoming_blocks = [b for b, _ in inst.incoming]
                if _as_id_set(incoming_blocks) != _as_id_set(block.preds):
                    _fail(
                        function,
                        f"memphi {inst.dst_name} incoming blocks != preds of {block.name}",
                        block,
                        "memssa",
                    )
                for pred, name in inst.incoming:
                    _check_mem_use(
                        function,
                        domtree,
                        positions,
                        defs,
                        name,
                        use_block=pred,
                        use_pos=len(pred.instructions),
                        inst=inst,
                    )
            elif inst.mem_uses:
                use_pos = positions[id(inst)][1]
                for name in inst.mem_uses:
                    _check_mem_use(
                        function,
                        domtree,
                        positions,
                        defs,
                        name,
                        use_block=block,
                        use_pos=use_pos,
                        inst=inst,
                    )


def _mem_use_site(inst: I.Instruction, use_block: BasicBlock) -> str:
    """Where a failing memory use sits; built only for the message."""
    if isinstance(inst, I.MemPhi):
        return f"memphi {inst.dst_name} from {use_block.name}"
    return f"memory use at {use_block.name}"


def _check_mem_use(
    function, domtree, positions, defs, name, use_block, use_pos, inst
) -> None:
    if name.is_entry:
        return  # live-on-entry version; defined "above" the entry block
    def_inst = defs.get(name)
    if def_inst is None:
        what = _mem_use_site(inst, use_block)
        _fail(
            function,
            f"memory name {name} used but never defined ({what})",
            use_block,
            "memssa",
        )
    def_block, def_pos = positions[id(def_inst)]
    if def_block is use_block:
        if def_pos >= use_pos:
            what = _mem_use_site(inst, use_block)
            _fail(
                function,
                f"memory name {name} used before definition ({what})",
                use_block,
                "memssa",
            )
    elif not domtree.dominates(def_block, use_block):
        what = _mem_use_site(inst, use_block)
        _fail(
            function,
            f"definition of {name} in {def_block.name} does not dominate "
            f"use in {use_block.name} ({what})",
            use_block,
            "memssa",
        )


def _instruction_positions(function: Function) -> Dict[int, Tuple[BasicBlock, int]]:
    positions: Dict[int, Tuple[BasicBlock, int]] = {}
    for block in function.blocks:
        for i, inst in enumerate(block.instructions):
            positions[id(inst)] = (block, i)
    return positions


def _as_id_set(blocks) -> Set[int]:
    return {id(b) for b in blocks}
