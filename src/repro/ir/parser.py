"""Parser for the textual IR form produced by :mod:`repro.ir.printer`.

Only the pre-memory-SSA subset round-trips: memory-SSA annotations
(``[x_2]`` suffixes, ``; use …`` comments, ``memphi``/``dummyload``
instructions) are either ignored or rejected, since memory SSA is always
reconstructed by :func:`repro.memory.memssa.build_memory_ssa`.

The grammar is line-oriented; see the printer for examples.  This exists
so tests and examples can state programs compactly and so IR dumps are
loadable artifacts.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Const, Value, VReg
from repro.memory.resources import MemoryVar, VarKind


class IRParseError(ValueError):
    """Raised on malformed textual IR."""


_GLOBAL_RE = re.compile(r"^global @([\w.]+) = (-?\d+)$")
_ARRAY_RE = re.compile(r"^array @([\w.]+)\[(\d+)\] = (-?\d+|\{[^}]*\})$")
_LOCAL_RE = re.compile(r"^local @([\w.]+) = (-?\d+)$")
_LOCAL_ARRAY_RE = re.compile(r"^local @([\w.]+)\[(\d+)\] = (-?\d+|\{[^}]*\})$")
_FUNC_RE = re.compile(r"^func @(\w+)\(([^)]*)\) \{$")
_LABEL_RE = re.compile(r"^(\w+):$")


def parse_module(text: str) -> Module:
    lines = _strip(text)
    module = Module()
    i = 0
    if i < len(lines) and lines[i].startswith("module"):
        module.name = lines[i].split(None, 1)[1] if " " in lines[i] else "module"
        i += 1
    while i < len(lines):
        line = lines[i]
        if m := _GLOBAL_RE.match(line):
            name, init = m.group(1), int(m.group(2))
            kind = VarKind.FIELD if "." in name else VarKind.GLOBAL
            module._add(MemoryVar(name, kind, initial=init))
            i += 1
        elif m := _ARRAY_RE.match(line):
            fill, values = _parse_init(m.group(3))
            module.add_global_array(
                m.group(1), int(m.group(2)), fill, initial_values=values
            )
            i += 1
        elif _FUNC_RE.match(line):
            i = _parse_function(module, lines, i)
        else:
            raise IRParseError(f"unexpected line at module level: {line!r}")
    return module


def _parse_init(token: str):
    """An array initializer: a fill integer or a ``{v, v, ...}`` list."""
    if token.startswith("{"):
        inner = token[1:-1].strip()
        values = [int(v) for v in inner.split(",")] if inner else []
        return 0, values
    return int(token), None


def _strip(text: str) -> List[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].rstrip()
        line = line.strip()
        if line:
            out.append(line)
    return out


def _parse_function(module: Module, lines: List[str], i: int) -> int:
    m = _FUNC_RE.match(lines[i])
    if not m:
        raise IRParseError(f"expected func header, got {lines[i]!r}")
    name = m.group(1)
    params = [p.strip().lstrip("%") for p in m.group(2).split(",") if p.strip()]
    func = Function(name, params)
    module.add_function(func)
    i += 1

    # Locals, then collect the body lines up to the closing brace.
    body: List[str] = []
    while i < len(lines) and lines[i] != "}":
        line = lines[i]
        if m := _LOCAL_ARRAY_RE.match(line):
            fill, values = _parse_init(m.group(3))
            var = func.add_frame_var(
                m.group(1), VarKind.ARRAY, initial=fill, size=int(m.group(2))
            )
            var.initial_values = values
        elif m := _LOCAL_RE.match(line):
            func.add_frame_var(m.group(1), VarKind.LOCAL, initial=int(m.group(2)))
        else:
            body.append(line)
        i += 1
    if i == len(lines):
        raise IRParseError(f"unterminated function {name}")
    i += 1  # consume '}'

    # Pass 1: create blocks.
    for line in body:
        if m := _LABEL_RE.match(line):
            func.add_block(m.group(1))
    if not func.blocks:
        raise IRParseError(f"function {name} has no blocks")

    # Pass 2: instructions.
    env = _Env(module, func)
    current: Optional[BasicBlock] = None
    pending_phis: List[Tuple[BasicBlock, I.Phi, List[Tuple[str, str]]]] = []
    for line in body:
        if m := _LABEL_RE.match(line):
            current = func.find_block(m.group(1))
            continue
        if current is None:
            raise IRParseError(f"instruction before first label: {line!r}")
        _parse_instruction(env, current, line, pending_phis)

    # Pass 3: resolve phi incoming values (may be forward references).
    for block, phi, pairs in pending_phis:
        incoming = [(func.find_block(bn), env.value(vt)) for bn, vt in pairs]
        phi.incoming = incoming
        phi._sync_operands()
    return i


class _Env:
    def __init__(self, module: Module, func: Function) -> None:
        self.module = module
        self.func = func
        self.regs: Dict[str, VReg] = {p.name: p for p in func.params}

    def reg(self, token: str) -> VReg:
        """Look up or forward-declare a register (``%name``)."""
        name = token.lstrip("%")
        if name not in self.regs:
            self.regs[name] = VReg(name)
        return self.regs[name]

    def value(self, token: str) -> Value:
        token = token.strip()
        if token.startswith("%"):
            return self.reg(token)
        try:
            return Const(int(token))
        except ValueError:
            raise IRParseError(f"bad value token {token!r}")

    def var(self, token: str) -> MemoryVar:
        name = token.lstrip("@")
        if name in self.func.frame_vars:
            return self.func.frame_vars[name]
        if name in self.module.globals:
            return self.module.globals[name]
        raise IRParseError(f"unknown memory variable @{name}")


_PHI_RE = re.compile(r"^%(\w+) = phi \[(.*)\]$")
_ASSIGN_RE = re.compile(r"^%(\w+) = (\w+) (.*)$")
_CALL_RE = re.compile(r"^call @(\w+)\((.*)\)$")
_ASSIGN_CALL_RE = re.compile(r"^%(\w+) = call @(\w+)\((.*)\)$")


def _parse_instruction(
    env: _Env,
    block: BasicBlock,
    line: str,
    pending_phis: List,
) -> None:
    func = env.func

    if m := _PHI_RE.match(line):
        dst = env.reg(m.group(1))
        pairs = []
        for part in _split_args(m.group(2)):
            block_name, value_token = part.split(":", 1)
            pairs.append((block_name.strip(), value_token.strip()))
        phi = I.Phi(dst, [])
        block.insert_at_front(phi)
        pending_phis.append((block, phi, pairs))
        return

    if m := _ASSIGN_CALL_RE.match(line):
        dst = env.reg(m.group(1))
        args = [env.value(a) for a in _split_args(m.group(3))]
        block.append(I.Call(dst, m.group(2), args))
        return

    if m := _CALL_RE.match(line):
        args = [env.value(a) for a in _split_args(m.group(2))]
        block.append(I.Call(None, m.group(1), args))
        return

    if m := _ASSIGN_RE.match(line):
        dst, op, rest = env.reg(m.group(1)), m.group(2), m.group(3)
        args = _split_args(rest)
        if op == "copy":
            block.append(I.Copy(dst, env.value(args[0])))
        elif op in I.UNARY_OPS:
            block.append(I.UnOp(dst, op, env.value(args[0])))
        elif op in I.BINARY_OPS:
            block.append(I.BinOp(dst, op, env.value(args[0]), env.value(args[1])))
        elif op == "ld":
            block.append(I.Load(dst, env.var(args[0])))
        elif op == "addr":
            block.append(I.AddrOf(dst, env.var(args[0])))
        elif op == "elem":
            block.append(I.Elem(dst, env.var(args[0]), env.value(args[1])))
        elif op == "ldp":
            block.append(I.PtrLoad(dst, env.value(args[0])))
        elif op == "lda":
            block.append(I.ArrayLoad(dst, env.var(args[0]), env.value(args[1])))
        else:
            raise IRParseError(f"unknown op in {line!r}")
        return

    head, _, rest = line.partition(" ")
    args = _split_args(rest)
    if head == "st":
        block.append(I.Store(env.var(args[0]), env.value(args[1])))
    elif head == "stp":
        block.append(I.PtrStore(env.value(args[0]), env.value(args[1])))
    elif head == "sta":
        block.append(
            I.ArrayStore(env.var(args[0]), env.value(args[1]), env.value(args[2]))
        )
    elif head == "print":
        block.append(I.Print([env.value(a) for a in args]))
    elif head == "jmp":
        block.set_terminator(I.Jump(func.find_block(args[0])))
    elif head == "br":
        block.set_terminator(
            I.CondBr(
                env.value(args[0]), func.find_block(args[1]), func.find_block(args[2])
            )
        )
    elif head == "ret":
        block.set_terminator(I.Ret(env.value(args[0]) if args else None))
    else:
        raise IRParseError(f"cannot parse instruction {line!r}")


def _split_args(text: str) -> List[str]:
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in text.split(",")]
