#!/usr/bin/env python3
"""Partial promotion around a cold call — the paper's Figures 7 and 8.

The program is the paper's running example:

    for (i = 0; i < 100; i++) {
        x++;
        if (x < 30) foo();
    }

A call anywhere in the loop defeats classic loop promotion (Lu & Cooper
reject the variable outright).  The paper's algorithm instead *sinks* the
store next to the call and reloads after it, so the hot path runs with x
in a register and only the cold path pays.

Run:  python examples/partial_promotion.py
"""

from repro.baselines import lu_cooper_promote
from repro.frontend import compile_source
from repro.ir import print_function
from repro.promotion import PromotionPipeline

SOURCE = """
int x = 0;

void foo() {
    x = x * 2 % 1000003;
}

int main() {
    for (int i = 0; i < 100; i++) {
        x++;
        if (x < 30) {
            foo();
        }
    }
    return x % 251;
}
"""


def main() -> None:
    # The paper's algorithm: partial promotion.
    module = compile_source(SOURCE)
    ours = PromotionPipeline().run(module)
    print("== Sastry-Ju promotion (Figure 8's transformation) ==")
    print(ours.report())
    print()
    print(print_function(module.get_function("main")))

    # Lu & Cooper: "the presence of function calls precludes any
    # promotion even if these calls are executed very infrequently."
    # Same pipeline, Lu-Cooper's per-function promoter.
    lc = PromotionPipeline(promoter=lu_cooper_promote).run(compile_source(SOURCE))
    print("\n== Lu-Cooper baseline on the same program ==")
    print(lc.report())

    saved_ours = ours.dynamic_before.total - ours.dynamic_after.total
    saved_lc = lc.dynamic_before.total - lc.dynamic_after.total
    print(f"\nmemory ops removed — ours: {saved_ours}, Lu-Cooper: {saved_lc}")
    assert saved_ours > saved_lc


if __name__ == "__main__":
    main()
