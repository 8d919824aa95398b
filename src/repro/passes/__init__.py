"""Cleanup passes: dead code elimination and copy propagation.

Promotion leaves behind copies ("These copy instructions are eliminated
later", §4.4), possibly unused compensation loads, dead register phis,
and dummy aliased loads; these passes sweep all of that.
"""

from repro.passes.copyprop import propagate_copies
from repro.passes.dce import (
    dead_code_elimination,
    dead_memory_elimination,
    remove_dummy_loads,
)

__all__ = [
    "dead_code_elimination",
    "dead_memory_elimination",
    "propagate_copies",
    "remove_dummy_loads",
]
