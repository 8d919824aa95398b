"""Block-frequency profiles.

The paper's algorithm is profile-driven: the profit of promoting a web is
a sum of basic-block execution frequencies (Section 4.3).  A
:class:`ProfileData` maps blocks to frequencies; it can be collected from
an interpreter run (exact), synthesized by the static estimator, or built
by hand in tests.

Frequencies are keyed by block identity.  Blocks created *after*
collection (e.g. by CFG normalization) default to frequency 0 unless
recorded, so always normalize before profiling.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction
from repro.ir.module import Module


class ProfileData:
    def __init__(self, counts: Optional[Dict[BasicBlock, int]] = None) -> None:
        self._counts: Dict[BasicBlock, int] = dict(counts or {})

    @classmethod
    def from_execution(cls, result) -> "ProfileData":
        """Build from an :class:`repro.profile.interp.ExecutionResult`."""
        return cls(result.block_counts)

    def freq(self, block: BasicBlock) -> int:
        return self._counts.get(block, 0)

    def freq_of(self, inst: Instruction) -> int:
        assert inst.block is not None
        return self.freq(inst.block)

    def set_freq(self, block: BasicBlock, count: int) -> None:
        self._counts[block] = count

    def scale(self, factor: float) -> "ProfileData":
        return ProfileData({b: int(c * factor) for b, c in self._counts.items()})

    def total(self, blocks: Iterable[BasicBlock]) -> int:
        return sum(self.freq(b) for b in blocks)

    def items(self) -> Iterable[Tuple[BasicBlock, int]]:
        """(block, count) pairs.  Their order is not significant: the
        tiered interpreter records source-tier counts after classic
        ones, and every consumer looks counts up by block."""
        return self._counts.items()

    def covered(self, module: Module) -> int:
        """How many blocks of ``module`` have a recorded frequency."""
        n = 0
        for function in module.functions.values():
            for block in function.blocks:
                if block in self._counts:
                    n += 1
        return n

    def __len__(self) -> int:
        return len(self._counts)
