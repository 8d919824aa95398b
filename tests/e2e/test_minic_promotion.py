"""End-to-end: mini-C source → lowering → promotion → identical behaviour
with fewer dynamic memory operations."""

from repro.baselines import lu_cooper_promote
from repro.frontend.lower import compile_source
from repro.profile.interp import run_module
from repro.promotion.pipeline import PromotionPipeline

HOT_GLOBAL = """
int counter = 0;
int main() {
    for (int i = 0; i < 200; i++) {
        counter += i;
    }
    return counter % 1000;
}
"""

COLD_CALL = """
int hits = 0;
int log_count = 0;
void note() { log_count++; }
int main() {
    for (int i = 0; i < 300; i++) {
        hits++;
        if (hits % 100 == 0) note();
    }
    print(hits, log_count);
    return 0;
}
"""

POINTER_MIX = """
int x = 0;
int A[8];
int main() {
    int *p = &x;
    for (int i = 0; i < 50; i++) {
        x += 2;
        A[i % 8] = x;
        if (i == 25) *p = 1000;
    }
    print(x, A[1]);
    return 0;
}
"""

STRUCT_FIELDS = """
struct stats { int hits; int total; };
int lookup(int key) {
    for (int probe = 0; probe < 4; probe++) {
        stats.total++;
        if ((key + probe) % 5 == 0) { stats.hits++; return probe; }
    }
    return -1;
}
int main() {
    int found = 0;
    for (int i = 0; i < 90; i++) {
        if (lookup(i) >= 0) found++;
    }
    print(found, stats.hits, stats.total);
    return 0;
}
"""


def _check(src, entry="main"):
    baseline = run_module(compile_source(src), entry=entry)
    module = compile_source(src)
    result = PromotionPipeline(entry=entry).run(module)
    after = run_module(module, entry=entry)
    assert after.output == baseline.output
    assert after.return_value == baseline.return_value
    assert after.globals_snapshot() == baseline.globals_snapshot()
    assert result.output_matches
    return result


def test_hot_global_promoted():
    result = _check(HOT_GLOBAL)
    assert result.dynamic_after.total <= 4
    assert result.dynamic_before.total >= 400


def test_cold_call_partial_promotion():
    result = _check(COLD_CALL)
    # 300 iterations; note() runs 3 times.  Memory traffic should shrink
    # to roughly the cold path.
    assert result.dynamic_after.total < result.dynamic_before.total / 10


def test_pointer_mix_correct_and_improved():
    result = _check(POINTER_MIX)
    assert result.dynamic_after.total < result.dynamic_before.total


def test_struct_fields_promoted_in_callee():
    result = _check(STRUCT_FIELDS)
    assert result.dynamic_after.total < result.dynamic_before.total


def test_promotion_beats_lucooper_on_cold_call():
    ours = PromotionPipeline().run(compile_source(COLD_CALL))
    lc = PromotionPipeline(promoter=lu_cooper_promote).run(compile_source(COLD_CALL))
    assert ours.output_matches and lc.output_matches
    assert ours.dynamic_after.total < lc.dynamic_after.total
