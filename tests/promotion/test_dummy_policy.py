"""Dummy aliased-load policy (§4.4's summarization for the parent).

The dummy tells the enclosing interval that memory must hold the
variable's value at the preheader.  It must appear exactly when the
paper says: after promoting a web that still contains aliased loads, or
when a web with references is not promoted at all — and never without a
live-in resource or for the root region.

These tests run the promotion driver with cleanup suppressed so the
dummies are observable.
"""

from repro.frontend.lower import compile_source
from repro.ir import instructions as I
from repro.memory.aliasing import AliasModel
from repro.memory.memssa import build_memory_ssa
from repro.profile.interp import Interpreter
from repro.profile.profiles import ProfileData
from repro.promotion.driver import PromotionOptions, promote_function
from repro.promotion.pipeline import _prepare


def _promote_raw(src, options=None):
    """Lower, prepare, profile, and promote — no cleanup pass."""
    module = compile_source(src)
    trees = {}
    for f in module.functions.values():
        trees[f.name] = _prepare(f)
    run = Interpreter(module).run("main", [])
    profile = ProfileData.from_execution(run)
    model = AliasModel.conservative(module)
    for f in module.functions.values():
        mssa = build_memory_ssa(f, model)
        promote_function(f, mssa, profile, trees[f.name], options)
    return module


def _dummies(module, fname="main"):
    return [
        i
        for i in module.functions[fname].instructions()
        if isinstance(i, I.DummyAliasedLoad)
    ]


def test_promoted_web_with_aliased_loads_gets_dummy():
    module = _promote_raw(
        """
        int x = 0;
        void foo() { x = x * 2; }
        int main() {
            for (int i = 0; i < 100; i++) {
                x++;
                if (x == 5) foo();
            }
            return x;
        }
        """
    )
    dummies = _dummies(module)
    assert any(d.var.name == "x" for d in dummies)
    # Placed in the loop preheader (outside the loop, before its end).
    for d in dummies:
        assert d.block.terminator is not None


def test_clean_promoted_web_gets_no_dummy():
    module = _promote_raw(
        """
        int x = 0;
        int main() {
            for (int i = 0; i < 50; i++) x += i;
            return x;
        }
        """
    )
    assert _dummies(module) == []


def test_skipped_web_with_refs_gets_dummy():
    # A loop where promotion is unprofitable (hot call every iteration)
    # must still summarize its memory expectation for the parent.
    module = _promote_raw(
        """
        int x = 0;
        void hot() { x = x + 1; }
        int main() {
            for (int i = 0; i < 60; i++) {
                x++;
                hot();
            }
            return x;
        }
        """,
        options=PromotionOptions(promote_root=False),
    )
    assert any(d.var.name == "x" for d in _dummies(module))


def test_untouched_variable_gets_no_dummy():
    module = _promote_raw(
        """
        int x = 0;
        int quiet = 7;
        int main() {
            for (int i = 0; i < 30; i++) x += i;
            return x;
        }
        """
    )
    assert all(d.var.name != "quiet" for d in _dummies(module))


def test_dummies_removed_by_pipeline_cleanup():
    from repro.promotion.pipeline import PromotionPipeline

    src = """
    int x = 0;
    void foo() { x = x * 2; }
    int main() {
        for (int i = 0; i < 100; i++) {
            x++;
            if (x == 5) foo();
        }
        return x;
    }
    """
    module = compile_source(src)
    PromotionPipeline().run(module)
    assert _dummies(module) == []
