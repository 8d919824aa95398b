"""Content fingerprints: stable across compiles, and a mutation changes
only the mutated function's key (what keeps routing sticky)."""

from repro.frontend.lower import compile_source
from repro.service.routing import (
    content_fingerprint,
    module_fingerprint,
)

SOURCE = """
int a = 0;
int b = 0;
int touch_a(int k) {
    for (int i = 0; i < 4; i++) a += k;
    return a;
}
int touch_b(int k) {
    for (int i = 0; i < 3; i++) b += k;
    return b;
}
int main() {
    print(touch_a(2) + touch_b(3));
    return 0;
}
"""

#: ``touch_b`` with a different loop bound; ``touch_a`` and ``main`` are
#: textually identical.
MUTATED = SOURCE.replace("i < 3", "i < 5")


def test_content_fingerprints_isolate_the_mutated_function():
    original = compile_source(SOURCE, "incremental")
    mutated = compile_source(MUTATED, "incremental")
    _, fps_original = module_fingerprint(original)
    _, fps_mutated = module_fingerprint(mutated)
    assert fps_original["touch_b"] != fps_mutated["touch_b"]
    assert fps_original["touch_a"] == fps_mutated["touch_a"]
    assert fps_original["main"] == fps_mutated["main"]


def test_content_fingerprint_is_stable_across_compiles():
    first = compile_source(SOURCE, "incremental")
    second = compile_source(SOURCE, "incremental")
    for name in first.functions:
        assert content_fingerprint(
            first.functions[name]
        ) == content_fingerprint(second.functions[name])
