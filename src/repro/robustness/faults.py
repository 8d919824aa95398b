"""Fault injection: deliberate IR corruption and unsound alias answers.

Each :class:`FaultInjector` method realizes one corruption class.  The
verifier-visible classes (dangling phi incomings, stale pred edges,
duplicate or missing definitions, dropped terminators, bogus memory-SSA
names) must make :func:`repro.ir.verify.verify_function` raise a
:class:`~repro.ir.verify.VerificationError` naming the offending function
and block — the transactional pipeline then rolls the function back.

The verifier-*silent* classes are semantic: :meth:`drop_compensating_store`
removes a store the partially-promoted code relies on (Fig. 4-6's
compensation code), and :class:`UnsoundAliasModel` returns deliberately
wrong alias answers so promotion caches values across aliased writes.
Those corruptions survive verification by construction and are caught by
the pipeline's re-execution oracle plus divergence bisection instead.

:class:`ChaosConfig` is the third family: *worker-level* chaos for the
supervised promotion worker.  Instead of corrupting IR it kills, stalls,
or trips the worker process itself — crash (``os._exit``), hang (sleep
past the deadline), transient exception — at seeded, per-attempt rates,
so the deadline/retry/quarantine machinery is testable end-to-end.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.ir import instructions as I
from repro.ir.function import Function
from repro.ir.values import VReg
from repro.memory.aliasing import AliasModel
from repro.memory.resources import MemName, MemoryVar


class FaultInjectionError(ValueError):
    """The requested mutation found no applicable site in the function."""


class FaultInjector:
    """Applies one deliberate corruption per call.

    Site selection is deterministic (first applicable site in block
    order) so tests stay reproducible.  ``MUTATIONS`` maps each
    verifier-visible mutation to the ``verify_function`` flags needed to
    detect it.
    """

    #: mutation name -> verify_function keyword flags that expose it.
    MUTATIONS: Dict[str, Dict[str, bool]] = {
        "dangling_phi_incoming": {"check_ssa": True},
        "stale_pred_edge": {},
        "drop_terminator": {},
        "duplicate_register_def": {"check_ssa": True},
        "undefined_register_use": {"check_ssa": True},
        "undefined_mem_use": {"check_memssa": True},
        "dangling_memphi_incoming": {"check_memssa": True},
        "drop_compensating_load": {"check_ssa": True},
    }

    def apply(self, mutation: str, function: Function) -> str:
        """Apply ``mutation`` by name; returns a description of the edit."""
        if mutation not in self.MUTATIONS and mutation != "drop_compensating_store":
            raise FaultInjectionError(f"unknown mutation {mutation!r}")
        method: Callable[[Function], str] = getattr(self, mutation)
        return method(function)

    # -- verifier-visible corruption classes -----------------------------

    def dangling_phi_incoming(self, function: Function) -> str:
        """Give a register phi an incoming entry for a non-predecessor."""
        for block in function.blocks:
            for phi in block.phis():
                foreign = _non_pred_block(function, block)
                if foreign is not None:
                    phi.set_incoming(foreign, phi.incoming[0][1])
                    return (
                        f"phi {phi.dst} in {block.name} given incoming from "
                        f"non-pred {foreign.name}"
                    )
                phi.remove_incoming(phi.incoming[0][0])
                return f"phi {phi.dst} in {block.name} lost an incoming entry"
        raise FaultInjectionError("function has no register phi")

    def dangling_memphi_incoming(self, function: Function) -> str:
        """Give a memory phi an incoming entry for a non-predecessor."""
        for block in function.blocks:
            for memphi in block.mem_phis():
                foreign = _non_pred_block(function, block)
                if foreign is not None:
                    memphi.set_incoming(foreign, memphi.incoming[0][1])
                    return (
                        f"memphi {memphi.dst_name} in {block.name} given "
                        f"incoming from non-pred {foreign.name}"
                    )
                memphi.remove_incoming(memphi.incoming[0][0])
                return f"memphi {memphi.dst_name} in {block.name} lost an entry"
        raise FaultInjectionError("function has no memory phi")

    def stale_pred_edge(self, function: Function) -> str:
        """Append a predecessor whose terminator does not branch here."""
        for block in function.blocks[1:]:
            for other in function.blocks:
                term = other.terminator
                if other is block or term is None or block in term.targets:
                    continue
                if other in block.preds:
                    continue
                block.preds.append(other)
                return f"stale pred edge {other.name} -> {block.name}"
        raise FaultInjectionError("no block pair for a stale pred edge")

    def drop_terminator(self, function: Function) -> str:
        """Remove the terminator of a return block."""
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, I.Ret):
                block.instructions.pop()
                term.block = None
                return f"removed terminator of {block.name}"
        raise FaultInjectionError("function has no return block")

    def duplicate_register_def(self, function: Function) -> str:
        """Make two instructions define the same virtual register."""
        first = None
        for inst in function.instructions():
            if inst.dst is None:
                continue
            if first is None:
                first = inst
                continue
            inst.dst = first.dst
            return f"{first.dst} now defined twice (block {inst.block.name})"
        raise FaultInjectionError("function defines fewer than two registers")

    def undefined_register_use(self, function: Function) -> str:
        """Replace an operand with a register that has no definition."""
        ghost = VReg("ghost_fault")
        for block in function.blocks:
            for inst in block.instructions:
                for op in list(inst.operands):
                    if isinstance(op, VReg):
                        inst.replace_operand(op, ghost)
                        return (
                            f"operand {op} in {block.name} replaced with "
                            f"undefined {ghost}"
                        )
        raise FaultInjectionError("function has no register operand")

    def undefined_mem_use(self, function: Function) -> str:
        """Point a memory use at an SSA name no instruction defines —
        the shape a wrong alias answer leaves behind."""
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, I.MemPhi) or not inst.mem_uses:
                    continue
                old = inst.mem_uses[0]
                ghost = MemName(old.var, 9999, None)
                inst.replace_mem_use(old, ghost)
                return (
                    f"memory use {old} in {block.name} replaced with "
                    f"undefined {ghost}"
                )
        raise FaultInjectionError("function has no memory uses")

    def drop_compensating_load(self, function: Function) -> str:
        """Delete a load whose result is still used — after partial
        promotion these are the preheader/merge loads Fig. 4-6's
        compensation code inserts, so deleting one leaves a register
        use with no definition."""
        used = set()
        for inst in function.instructions():
            for op in inst.operands:
                if isinstance(op, VReg):
                    used.add(op)
        for inst in function.instructions():
            if isinstance(inst, I.Load) and inst.dst in used:
                block = inst.block
                inst.remove_from_block()
                return f"removed load of @{inst.var.name} in {block.name}"
        raise FaultInjectionError("function has no live load")

    # -- verifier-silent (semantic) corruption classes -------------------

    def drop_compensating_store(self, function: Function) -> str:
        """Delete the last singleton store — after partial promotion this
        is compensation code (an interval-tail store or a flush before an
        aliased reference), so the IR stays verifiable but memory no
        longer holds the promoted value.  Caught only by re-execution."""
        target = None
        for inst in function.instructions():
            if isinstance(inst, I.Store):
                target = inst
        if target is None:
            raise FaultInjectionError("function has no singleton store")
        block = target.block
        target.remove_from_block()
        return f"removed store to @{target.var.name} in {block.name}"


class TransientFaultError(RuntimeError):
    """An injected transient fault — the retryable chaos class."""


class SeededChaos:
    """Seeded fault plans: the one draw mechanism behind worker chaos
    (:class:`ChaosConfig`) and wire chaos
    (:class:`repro.service.chaos.ServiceChaosConfig`).

    Each mode in ``MODES`` fires independently at its rate, decided by a
    *pure* sha256 draw over a key string — no runtime randomness, so a
    schedule replays exactly from its seed.  When several modes fire for
    one key, the first in ``MODES`` order wins.  :meth:`parse` reads the
    CLI form ``mode=rate,...,seed=N`` plus the subclass's ``PARAMS``.
    """

    MODES: Tuple[str, ...] = ()
    #: Spec keys besides the mode rates: key -> (keyword, converter).
    PARAMS: Dict[str, Tuple[str, Callable[[str], object]]] = {"seed": ("seed", int)}

    def __init__(self, seed: int = 0, **rates: float) -> None:
        for mode in self.MODES:
            rate = rates[mode]
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"chaos rate {mode}={rate} outside [0, 1]")
            setattr(self, mode, rate)
        self.seed = seed

    @property
    def enabled(self) -> bool:
        return any(self.rate(mode) > 0 for mode in self.MODES)

    def rate(self, mode: str) -> float:
        if mode not in self.MODES:
            raise ValueError(f"unknown chaos mode {mode!r}")
        return getattr(self, mode)

    @staticmethod
    def draw_key(key: str) -> float:
        """The deterministic uniform draw in ``[0, 1)`` for one key."""
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def plan_key(self, prefix: str) -> Optional[str]:
        """The first mode whose draw over ``"{prefix}:{mode}"`` falls
        under its rate, or ``None``."""
        for mode in self.MODES:
            rate = self.rate(mode)
            if rate > 0 and self.draw_key(f"{prefix}:{mode}") < rate:
                return mode
        return None

    @classmethod
    def parse(cls, spec: str) -> "SeededChaos":
        """Parse the CLI form, e.g. ``"crash=0.1,hang=0.1,seed=42"``."""
        kwargs: Dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"chaos spec item {item!r} is not key=value")
            key = key.strip()
            value = value.strip()
            if key in cls.MODES:
                keyword, convert = key, float
            elif key in cls.PARAMS:
                keyword, convert = cls.PARAMS[key]
            else:
                raise ValueError(f"unknown chaos spec key {key!r}")
            try:
                kwargs[keyword] = convert(value)
            except ValueError:
                raise ValueError(
                    f"chaos spec value {key}={value!r} is not a number"
                ) from None
        return cls(**kwargs)

    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {mode: self.rate(mode) for mode in self.MODES}
        doc["seed"] = self.seed
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.as_dict()})"


#: Exit status a chaos-crashed worker dies with — distinctive on purpose,
#: so a crash reason's exit code tells chaos apart from a real abort.
CHAOS_CRASH_EXIT_CODE = 113


class ChaosConfig(SeededChaos):
    """Seeded worker-level fault injection for the supervised worker.

    Decisions are keyed by ``(seed, function, attempt, mode)``, so a
    retried attempt re-rolls (a transient fault on attempt 1 typically
    clears by attempt 2, while a 1.0-rate fault is a poison function
    that ends up quarantined).

    ``functions`` optionally restricts injection to the named functions
    (how tests poison exactly one victim; ``only=f|g`` in a spec).
    ``hang_seconds`` is how long a hang sleeps — point it past the
    deadline to exercise the watchdog, or leave the deadline unset and
    the hang is just latency.
    """

    MODES = ("crash", "hang", "transient")
    PARAMS = {
        "seed": ("seed", int),
        "hang_seconds": ("hang_seconds", float),
        "only": ("functions", lambda value: [n for n in value.split("|") if n]),
    }

    def __init__(
        self,
        crash: float = 0.0,
        hang: float = 0.0,
        transient: float = 0.0,
        seed: int = 0,
        hang_seconds: float = 30.0,
        functions: Optional[Iterable[str]] = None,
    ) -> None:
        super().__init__(seed, crash=crash, hang=hang, transient=transient)
        if hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {hang_seconds}")
        self.hang_seconds = hang_seconds
        self.functions: Optional[FrozenSet[str]] = (
            frozenset(functions) if functions is not None else None
        )

    def draw(self, name: str, attempt: int, mode: str) -> float:
        """The deterministic uniform draw in ``[0, 1)`` for one decision."""
        return self.draw_key(f"{self.seed}:{name}:{attempt}:{mode}")

    def plan(self, name: str, attempt: int) -> Optional[str]:
        """Which mode (if any) fires for this function attempt."""
        if self.functions is not None and name not in self.functions:
            return None
        return self.plan_key(f"{self.seed}:{name}:{attempt}")

    def inject(self, name: str, attempt: int) -> Optional[str]:
        """Execute the planned fault in the calling (worker) process:
        crash never returns, hang sleeps then returns ``"hang"``,
        transient raises :class:`TransientFaultError`."""
        mode = self.plan(name, attempt)
        if mode == "crash":
            os._exit(CHAOS_CRASH_EXIT_CODE)
        if mode == "hang":
            time.sleep(self.hang_seconds)
            return "hang"
        if mode == "transient":
            raise TransientFaultError(
                f"injected transient fault in {name} (attempt {attempt})"
            )
        return None

    def as_dict(self) -> Dict[str, object]:
        doc = super().as_dict()
        doc["hang_seconds"] = self.hang_seconds
        doc["only"] = sorted(self.functions) if self.functions is not None else None
        return doc


class UnsoundAliasModel(AliasModel):
    """An alias model that claims calls and pointer references touch no
    scalar memory at all.

    Maximally unsound: promotion will happily cache a variable in a
    register across a call or pointer store that actually rewrites it,
    and dead-store elimination may delete stores those references need.
    Usable directly as a pipeline factory::

        PromotionPipeline(alias_model=UnsoundAliasModel).run(module)

    The run must still terminate with behaviour-preserving IR — the
    re-execution oracle detects the divergence and bisection rolls the
    affected functions back.
    """

    def points_to(self, function: Function, ptr) -> List[MemoryVar]:
        return []

    def call_effects(
        self, function: Function, callee: str
    ) -> Tuple[List[MemoryVar], List[MemoryVar]]:
        return [], []


def _non_pred_block(function: Function, block):
    for candidate in function.blocks:
        if candidate is not block and candidate not in block.preds:
            return candidate
    return None
