"""Structural fingerprints of function IR, for analysis caching.

A fingerprint is a nested tuple of object identities that changes whenever
the fingerprinted structure is mutated, paired with a *pin list* holding a
strong reference to every object whose ``id()`` appears in the key.  The
pins make identity keys sound: as long as a cache entry (and therefore its
pins) is alive, none of those ids can be recycled for a new object, so a
key match proves the cached analysis still describes the exact same IR
objects.

Two granularities:

* :func:`cfg_fingerprint` covers the block set and the edge structure —
  everything a dominator tree or an IDF computation depends on.  Inserting
  or deleting instructions does not change it; adding/removing blocks or
  retargeting a terminator does (terminator targets are part of the key).
* :func:`code_fingerprint` additionally covers every instruction: its
  identity, class, target register, operand identities, and (for phis) the
  incoming predecessor blocks — everything liveness depends on.  Replacing
  an operand in place swaps the operand object, so it changes the key.

Identity keys only mean anything inside one process, so there is a
second family: **content fingerprints**, stable sha256 digests of
everything promotion reads from a function — the printed IR, the
frame-variable table (including ``address_taken``, which the printer
does not show), and the naming counters (two textually identical
functions with different ``_next_reg`` would promote to differently
*named* registers).  Content keys survive process boundaries and module
rebuilds, which is what lets the service router send the same program
to the same daemon (:mod:`repro.service.routing`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Phi


def cfg_fingerprint(function: Function) -> Tuple[tuple, List[object]]:
    """(key, pins) covering the CFG: blocks in order plus successor edges."""
    pins: List[object] = [function]
    parts = []
    for block in function.blocks:
        pins.append(block)
        succ_ids = []
        term = block.terminator
        if term is not None:
            for target in term.targets:
                pins.append(target)
                succ_ids.append(id(target))
        parts.append((id(block), tuple(succ_ids)))
    return tuple(parts), pins


def code_fingerprint(function: Function) -> Tuple[tuple, List[object]]:
    """(key, pins) covering the CFG plus every instruction and operand."""
    pins: List[object] = [function]
    parts = []
    for block in function.blocks:
        pins.append(block)
        inst_parts = []
        for inst in block.instructions:
            pins.append(inst)
            operand_ids = []
            for op in inst.operands:
                pins.append(op)
                operand_ids.append(id(op))
            dst = inst.dst
            if dst is not None:
                pins.append(dst)
            extra: tuple = ()
            if isinstance(inst, Phi):
                # replace_incoming_block swaps predecessors without
                # touching the operand list; liveness cares.
                pred_ids = []
                for pred, _ in inst.incoming:
                    pins.append(pred)
                    pred_ids.append(id(pred))
                extra = tuple(pred_ids)
            elif inst.is_terminator:
                target_ids = []
                for target in inst.targets:
                    pins.append(target)
                    target_ids.append(id(target))
                extra = tuple(target_ids)
            inst_parts.append(
                (
                    id(inst),
                    id(inst.__class__),
                    0 if dst is None else id(dst),
                    tuple(operand_ids),
                    extra,
                )
            )
        parts.append((id(block), tuple(inst_parts)))
    return tuple(parts), pins


# -- content fingerprints (cross-process, cross-run) ----------------------


def _var_tuple(var) -> tuple:
    """Every :class:`MemoryVar` field promotion can observe."""
    return (
        var.name,
        var.kind.value,
        var.initial,
        var.size,
        tuple(var.initial_values) if var.initial_values is not None else None,
        bool(var.address_taken),
    )


def content_fingerprint(function: Function) -> str:
    """A stable digest of one function's promotion-relevant content.

    Covers the printed IR, the frame-variable table, and the naming
    counters (``_next_reg``/``_next_block``/``_mem_versions``) — the
    counters matter because promotion *names* new registers and blocks
    from them, so two structurally identical functions with different
    counters transform to textually different IR.  Equal fingerprints
    imply promotion produces byte-identical results, which is the
    soundness condition for replaying a cached dispatch.
    """
    from repro.ir.printer import print_function

    digest = hashlib.sha256()
    digest.update(print_function(function).encode())
    digest.update(repr((function._next_reg, function._next_block)).encode())
    versions = sorted(
        (var.name, version) for var, version in function._mem_versions.items()
    )
    digest.update(repr(versions).encode())
    frame = [_var_tuple(var) for var in function.frame_vars.values()]
    digest.update(repr(frame).encode())
    return digest.hexdigest()


def globals_fingerprint(module) -> str:
    """A stable digest of the module's global variable table.

    The alias model and payload re-binding both resolve globals by name,
    so a dispatch may only be replayed against a module whose globals
    carry the same names, kinds, sizes, initials, and address-taken
    bits.
    """
    digest = hashlib.sha256()
    digest.update(repr([_var_tuple(v) for v in module.globals.values()]).encode())
    return digest.hexdigest()


def module_fingerprint(module) -> Tuple[str, Dict[str, str]]:
    """(module key, per-function content keys) for epoch bookkeeping.

    The module key covers the globals table plus every function's
    content fingerprint in declaration order; two modules with equal
    keys are IR-equivalent as far as promotion is concerned, which is
    what lets a warm worker skip re-synchronizing entirely.
    """
    fps = {
        name: content_fingerprint(function)
        for name, function in module.functions.items()
    }
    digest = hashlib.sha256()
    digest.update(module.name.encode())
    digest.update(globals_fingerprint(module).encode())
    for name, fp in fps.items():
        digest.update(name.encode())
        digest.update(fp.encode())
    return digest.hexdigest(), fps
