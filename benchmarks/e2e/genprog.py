"""Random mini-C program generation — a frozen copy for the benchmark.

This is ``tests/property/genprog.py`` as it stood when the benchmark was
defined.  The test generator is expected to grow (alias density, loop
depth, call saturation); the benchmark's ``gen-cold`` programs and its
service traffic must not change with it, or every later comparison
against an earlier run would compare different inputs.  Edit this copy
only in a change that re-baselines the benchmark.

Programs are generated from a seeded ``random.Random`` so hypothesis can
drive them with a single integer.  Guarantees, by construction:

* termination — the only loops are counted ``for`` loops with literal
  bounds and fresh induction variables;
* in-bounds array access — indices are wrapped with ``((e % n) + n) % n``;
* total arithmetic — division and remainder are total in the IR;
* observability — the program prints every global at the end, so any
  miscompiled store is visible to the differential test.
"""

from __future__ import annotations

import random
from typing import List

BINOPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<", "<=", ">", ">=", "==", "!="]


class ProgramGen:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.globals: List[str] = [f"g{i}" for i in range(self.rng.randint(2, 4))]
        self.array = "arr" if self.rng.random() < 0.6 else None
        self.array_size = self.rng.randint(3, 8)
        self.taken = self.rng.choice(self.globals)  # address-exposed global
        self.helpers: List[str] = [f"h{i}" for i in range(self.rng.randint(1, 2))]
        self._loop_counter = 0
        self._local_counter = 0

    # -- expressions -----------------------------------------------------

    def expr(self, names: List[str], depth: int = 0) -> str:
        roll = self.rng.random()
        if depth >= 3 or roll < 0.25:
            return str(self.rng.randint(-9, 20))
        if roll < 0.55 and names:
            return self.rng.choice(names)
        if roll < 0.62 and self.array is not None:
            idx = self.expr(names, depth + 2)
            n = self.array_size
            return f"{self.array}[((({idx}) % {n}) + {n}) % {n}]"
        if roll < 0.68:
            op = self.rng.choice(["-", "!", "~"])
            return f"{op}({self.expr(names, depth + 1)})"
        if roll < 0.74:
            op = self.rng.choice(["&&", "||"])
            return f"(({self.expr(names, depth + 1)}) {op} ({self.expr(names, depth + 1)}))"
        op = self.rng.choice(BINOPS)
        return f"(({self.expr(names, depth + 1)}) {op} ({self.expr(names, depth + 1)}))"

    # -- statements ------------------------------------------------------

    def lvalue(self, names: List[str]) -> str:
        roll = self.rng.random()
        if roll < 0.12 and self.array is not None:
            idx = self.expr(names, 2)
            n = self.array_size
            return f"{self.array}[((({idx}) % {n}) + {n}) % {n}]"
        candidates = self.globals + [n for n in names if n.startswith("v")]
        return self.rng.choice(candidates)

    def statement(self, names: List[str], depth: int, allow_call: bool) -> List[str]:
        roll = self.rng.random()
        if roll < 0.35:
            op = self.rng.choice(["", "", "", "+", "-", "*", "^"])
            return [f"{self.lvalue(names)} {op}= {self.expr(names)};"]
        if roll < 0.45:
            target = self.lvalue(names)
            return [f"{target}{self.rng.choice(['++', '--'])};"]
        if roll < 0.55 and depth < 2:
            cond = self.expr(names)
            then = self.block(names, depth + 1, allow_call)
            if self.rng.random() < 0.5:
                other = self.block(names, depth + 1, allow_call)
                return [f"if ({cond}) {{"] + then + ["} else {"] + other + ["}"]
            return [f"if ({cond}) {{"] + then + ["}"]
        if roll < 0.68 and depth < 2:
            self._loop_counter += 1
            var = f"i{self._loop_counter}"
            bound = self.rng.randint(2, 12)
            body = self.block(names + [var], depth + 1, allow_call)
            lines = [f"for (int {var} = 0; {var} < {bound}; {var}++) {{"] + body
            if self.rng.random() < 0.25:
                lines.append(f"if ({var} == {self.rng.randint(0, bound)}) break;")
            if self.rng.random() < 0.2:
                lines.append(f"if (({var} % 7) == 3) continue;")
            lines.append("}")
            return lines
        if roll < 0.78 and allow_call and self.helpers:
            callee = self.rng.choice(self.helpers)
            return [f"{callee}({self.expr(names)});"]
        if roll < 0.86:
            self._local_counter += 1
            name = f"v{self._local_counter}"
            names.append(name)
            return [f"int {name} = {self.expr(names)};"]
        if roll < 0.93 and self.rng.random() < 0.5:
            # Pointer traffic through the designated exposed global.
            return [f"*p = {self.expr(names)};"]
        return [f"{self.rng.choice(self.globals)} = *p;"]

    def block(self, names: List[str], depth: int, allow_call: bool) -> List[str]:
        lines: List[str] = []
        for _ in range(self.rng.randint(1, 4)):
            lines.extend(self.statement(list(names), depth, allow_call))
        return lines

    # -- whole program -----------------------------------------------------

    def generate(self) -> str:
        lines: List[str] = []
        for name in self.globals:
            lines.append(f"int {name} = {self.rng.randint(-5, 9)};")
        if self.array is not None:
            lines.append(f"int {self.array}[{self.array_size}];")

        for helper in self.helpers:
            lines.append(f"void {helper}(int a) {{")
            lines.append("    int *p = &" + self.taken + ";")
            # Helpers may not call (keeps call graphs acyclic and shallow).
            lines.extend("    " + l for l in self.block(["a"], 1, allow_call=False))
            lines.append("}")

        lines.append("int main() {")
        lines.append(f"    int *p = &{self.taken};")
        lines.extend("    " + l for l in self.block([], 0, allow_call=True))
        lines.append("    print(" + ", ".join(self.globals) + ");")
        if self.array is not None:
            lines.append(
                f"    print({self.array}[0], {self.array}[{self.array_size - 1}]);"
            )
        lines.append(f"    return ({self.expr(self.globals)}) % 1000;")
        lines.append("}")
        return "\n".join(lines)


def random_program(seed: int) -> str:
    return ProgramGen(seed).generate()
