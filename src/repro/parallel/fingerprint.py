"""Content fingerprints of function and module IR.

A content fingerprint is a stable sha256 digest of everything promotion
reads from a function: the printed IR, the frame-variable table
(including ``address_taken``, which the printer does not show), and the
naming counters (two textually identical functions with different
``_next_reg`` would promote to differently *named* registers).  Content
keys survive process boundaries and module rebuilds, which is what lets
the service router send the same program to the same daemon
(:mod:`repro.service.routing`) and ``repro-minic --fingerprint`` print a
key a client can route on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from repro.ir.function import Function


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
    imply promotion produces byte-identical results.
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
    so two modules promote alike only if their globals carry the same
    names, kinds, sizes, initials, and address-taken bits.
    """
    digest = hashlib.sha256()
    digest.update(repr([_var_tuple(v) for v in module.globals.values()]).encode())
    return digest.hexdigest()


def module_fingerprint(module) -> Tuple[str, Dict[str, str]]:
    """(module key, per-function content keys).

    The module key covers the globals table plus every function's
    content fingerprint in declaration order; two modules with equal
    keys are IR-equivalent as far as promotion is concerned, which is
    what makes the key a sound sticky-routing key: the daemon that
    served a program before holds its result in its result cache.
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
