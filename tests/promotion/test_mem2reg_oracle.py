"""An exact, profile-free oracle for phase 1's mem2reg.

A scalar local whose address is never taken is promotable without any
profile or cost model: every one of them must leave phase 1 with no
``Load`` or ``Store`` left and no frame slot.  The check runs phase 1 as
the pipeline runs it (:func:`_prepare`: normalization, then mem2reg on
the normalized CFG's dominator tree), so it also guards that order.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir import instructions as I
from repro.promotion.pipeline import _prepare
from repro.ssa.construct import promotable_locals

from tests.property.genprog import random_program


def _check(source: str) -> int:
    """Run phase 1 on every function of ``source``; returns how many
    promotable locals it checked."""
    module = compile_source(source)
    checked = 0
    for function in module.functions.values():
        scalars = promotable_locals(function)
        ids = {id(var) for var in scalars}
        _prepare(function)
        left = [
            inst
            for inst in function.instructions()
            if isinstance(inst, (I.Load, I.Store)) and id(inst.var) in ids
        ]
        assert left == [], (function.name, left)
        assert not {var.name for var in scalars} & set(function.frame_vars)
        checked += len(scalars)
    return checked


@pytest.mark.parametrize("name", ORDER)
def test_proxy_scalars_leave_phase_one_without_memory_ops(name):
    assert _check(WORKLOADS[name].source) > 0


def test_generated_scalars_leave_phase_one_without_memory_ops():
    assert sum(_check(random_program(seed)) for seed in range(200)) > 0
