"""Behavioural tests for the Lu-Cooper and Mahlke baselines, plus the
qualitative comparisons the paper's related-work section claims."""

from repro.baselines import lu_cooper_promote, mahlke_promote
from repro.ir.parser import parse_module
from repro.promotion.pipeline import PromotionPipeline

CLEAN_LOOP = """
module m
global @x = 0
func @main() {
entry:
  jmp h
h:
  %i = phi [entry: 0, body: %i2]
  %c = lt %i, 60
  br %c, body, out
body:
  %t = ld @x
  %t2 = add %t, 1
  st @x, %t2
  %i2 = add %i, 1
  jmp h
out:
  %r = ld @x
  ret %r
}
"""

COLD_CALL_LOOP = """
module m
global @x = 0
func @main() {
entry:
  jmp h
h:
  %i = phi [entry: 0, latch: %i2]
  %c = lt %i, 100
  br %c, body, done
body:
  %t1 = ld @x
  %t2 = add %t1, 1
  st @x, %t2
  %cc = lt %t2, 5
  br %cc, cold, latch
cold:
  %r = call @foo()
  jmp latch
latch:
  %i2 = add %i, 1
  jmp h
done:
  %t9 = ld @x
  ret %t9
}
func @foo() {
entry:
  %t = ld @x
  %u = add %t, 10
  st @x, %u
  ret
}
"""

NESTED_AMBIGUOUS_OUTER = """
module m
global @x = 0
func @main() {
entry:
  jmp oh
oh:
  %i = phi [entry: 0, olatch: %i2]
  %c1 = lt %i, 10
  br %c1, ih0, oexit
ih0:
  jmp ih
ih:
  %j = phi [ih0: 0, ibody: %j2]
  %c2 = lt %j, 20
  br %c2, ibody, omid
ibody:
  %t = ld @x
  %t2 = add %t, 1
  st @x, %t2
  %j2 = add %j, 1
  jmp ih
omid:
  %r = call @foo()
  jmp olatch
olatch:
  %i2 = add %i, 1
  jmp oh
oexit:
  %u = ld @x
  ret %u
}
func @foo() {
entry:
  ret
}
"""


def test_lucooper_promotes_clean_loop():
    module = parse_module(CLEAN_LOOP)
    result = PromotionPipeline(promoter=lu_cooper_promote).run(module)
    assert result.output_matches
    # 120 in-loop ops collapse to a preheader load and tail store.
    assert result.dynamic_after.total <= 4
    assert result.dynamic_before.total == 121


def test_lucooper_rejects_loop_with_call():
    module = parse_module(COLD_CALL_LOOP)
    result = PromotionPipeline(promoter=lu_cooper_promote).run(module)
    assert result.output_matches
    # "the presence of function calls precludes any promotion even if
    # these calls are executed very infrequently."
    assert result.dynamic_after.total == result.dynamic_before.total


def test_lucooper_promotes_inner_when_outer_ambiguous():
    module = parse_module(NESTED_AMBIGUOUS_OUTER)
    result = PromotionPipeline(promoter=lu_cooper_promote).run(module)
    assert result.output_matches
    # Outer loop has a call: rejected; inner clean loop still promotes.
    assert result.dynamic_after.total < result.dynamic_before.total / 5


def test_mahlke_promotes_when_call_is_cold():
    module = parse_module(COLD_CALL_LOOP)
    result = PromotionPipeline(promoter=mahlke_promote).run(module)
    assert result.output_matches
    # The call is off-trace (4 of 100 iterations): migration applies.
    assert result.dynamic_after.total < result.dynamic_before.total


def test_mahlke_rejects_hot_call():
    module = parse_module(
        COLD_CALL_LOOP.replace("%cc = lt %t2, 5", "%cc = lt %t2, 1000")
    )
    result = PromotionPipeline(promoter=mahlke_promote).run(module)
    assert result.output_matches
    # Call now on every iteration: on-trace, so no migration.
    assert result.dynamic_after.total == result.dynamic_before.total


def test_paper_algorithm_dominates_lucooper_on_cold_calls():
    ours = PromotionPipeline().run(parse_module(COLD_CALL_LOOP))
    theirs = PromotionPipeline(promoter=lu_cooper_promote).run(
        parse_module(COLD_CALL_LOOP)
    )
    assert ours.output_matches and theirs.output_matches
    assert ours.dynamic_after.total < theirs.dynamic_after.total


def test_paper_algorithm_matches_lucooper_on_clean_loops():
    ours = PromotionPipeline().run(parse_module(CLEAN_LOOP))
    theirs = PromotionPipeline(promoter=lu_cooper_promote).run(
        parse_module(CLEAN_LOOP)
    )
    assert ours.dynamic_after.total <= theirs.dynamic_after.total


def test_mahlke_misses_outer_loop_opportunity():
    # Mahlke works on innermost loops only; the paper's interval
    # recursion hoists the inner loop's boundary ops out of the outer
    # loop as well.
    ours = PromotionPipeline().run(parse_module(NESTED_AMBIGUOUS_OUTER))
    theirs = PromotionPipeline(promoter=mahlke_promote).run(
        parse_module(NESTED_AMBIGUOUS_OUTER)
    )
    assert ours.output_matches and theirs.output_matches
    assert ours.dynamic_after.total <= theirs.dynamic_after.total
