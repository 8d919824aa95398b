"""Loop unrolling built on the incremental SSA update (paper §4.4's
suggested application)."""


from repro.frontend.lower import compile_source
from repro.ir import instructions as I
from repro.ir.verify import verify_module
from repro.passes.unroll import unroll_module
from repro.profile.interp import run_module
from repro.promotion.pipeline import PromotionPipeline


def observe(module):
    result = run_module(module, max_steps=2_000_000)
    return result.output, result.return_value, result.globals_snapshot()


def check_unroll(src, expect_unrolled=True, entry="main"):
    baseline = observe(compile_source(src))
    module = compile_source(src)
    unrolled = unroll_module(module)
    if expect_unrolled:
        assert unrolled >= 1
    verify_module(module, check_memssa=True)
    assert observe(module) == baseline
    return module, unrolled


def test_simple_counted_loop():
    src = """
    int total = 0;
    int main() {
        for (int i = 0; i < 10; i++) total += i;
        print(total);
        return total;
    }
    """
    module, _ = check_unroll(src)
    # The loop body was duplicated: two stores to @total now exist.
    main = module.get_function("main")
    stores = [
        i for i in main.instructions()
        if isinstance(i, I.Store) and i.var.name == "total"
    ]
    assert len(stores) >= 2


def test_odd_trip_count_exact():
    # No trip-count analysis: the cloned header keeps its exit test, so
    # odd counts work unchanged.
    src = """
    int acc = 1;
    int main() {
        for (int i = 0; i < 7; i++) acc = acc * 2 % 10007;
        print(acc);
        return 0;
    }
    """
    check_unroll(src)


def test_loop_with_branchy_body():
    src = """
    int evens = 0;
    int odds = 0;
    int main() {
        for (int i = 0; i < 21; i++) {
            if (i % 2 == 0) evens++;
            else odds++;
        }
        print(evens, odds);
        return 0;
    }
    """
    check_unroll(src)


def test_loop_with_break_and_call():
    src = """
    int count = 0;
    int seen = 0;
    void note(int v) { seen += v; }
    int main() {
        for (int i = 0; i < 50; i++) {
            count++;
            note(i);
            if (count == 13) break;
        }
        print(count, seen);
        return 0;
    }
    """
    check_unroll(src)


def test_while_loop():
    src = """
    int n = 1000;
    int steps = 0;
    int main() {
        while (n > 1) {
            if (n % 2 == 0) n /= 2;
            else n = 3 * n + 1;
            steps++;
        }
        print(n, steps);
        return steps;
    }
    """
    check_unroll(src)


def test_nested_loops_unroll_inner():
    src = """
    int sum = 0;
    int main() {
        for (int i = 0; i < 6; i++) {
            for (int j = 0; j < 5; j++) {
                sum += i * j;
            }
        }
        print(sum);
        return 0;
    }
    """
    module, unrolled = check_unroll(src)
    assert unrolled >= 1  # the inner loop


def test_pointer_traffic_in_loop():
    src = """
    int x = 0;
    int main() {
        int *p = &x;
        for (int i = 0; i < 9; i++) {
            *p = *p + i;
        }
        print(x);
        return 0;
    }
    """
    check_unroll(src)


def test_unroll_then_promote_composes():
    src = """
    int hits = 0;
    void rare() { print(hits); }
    int main() {
        for (int i = 0; i < 100; i++) {
            hits += 2;
            if (hits == 44) rare();
        }
        print(hits);
        return 0;
    }
    """
    baseline = observe(compile_source(src))
    module = compile_source(src)
    assert unroll_module(module) >= 1
    result = PromotionPipeline().run(module)
    assert result.output_matches
    assert observe(module) == baseline
    # Promotion still removes the hot loop's traffic after unrolling.
    assert result.dynamic_after.total < result.dynamic_before.total / 2


def test_oversized_loops_skipped():
    body = "\n".join(f"if (i % {k + 3} == 0) a{k}++;" for k in range(12))
    decls = "\n".join(f"int a{k} = 0;" for k in range(12))
    src = f"""
    {decls}
    int main() {{
        for (int i = 0; i < 10; i++) {{
            {body}
        }}
        return a0;
    }}
    """
    module = compile_source(src)
    assert unroll_module(module, max_loop_blocks=4) == 0


def test_bailout_on_register_phis():
    # After mem2reg, loop state lives in register phis; the unroller must
    # refuse rather than mis-clone.
    from repro.memory.aliasing import AliasModel
    from repro.passes.unroll import unroll_function
    from repro.ssa.construct import construct_ssa

    module = compile_source(
        """
        int g = 0;
        int main() {
            for (int i = 0; i < 5; i++) g += i;
            return g;
        }
        """
    )
    func = module.get_function("main")
    construct_ssa(func)  # now the loop has register phis
    assert unroll_function(func, AliasModel.conservative(module)) == 0


def test_bailout_on_improper_loop():
    from repro.ir.parser import parse_module
    from repro.memory.aliasing import AliasModel
    from repro.passes.unroll import unroll_function

    module = parse_module(
        """
        module m
        global @x = 0
        func @f(%c) {
        entry:
          br %c, a, b
        a:
          %t1 = ld @x
          %ca = eq %t1, 1
          br %ca, b, done
        b:
          st @x, 2
          %cb = ld @x
          br %cb, a, done
        done:
          ret
        }
        """
    )
    func = module.get_function("f")
    assert unroll_function(func, AliasModel.conservative(module)) == 0


def test_unroll_counts_reported():
    src = """
    int a = 0;
    int b = 0;
    int main() {
        for (int i = 0; i < 4; i++) a += i;
        for (int j = 0; j < 3; j++) b += j;
        return a + b;
    }
    """
    module = compile_source(src)
    from repro.passes.unroll import unroll_module

    assert unroll_module(module) == 2
