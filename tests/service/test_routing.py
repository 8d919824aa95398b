"""Unit tests for the pure routing layer: rendezvous hashing and the
fingerprint resolver.

Everything here is deterministic and IO-free, so the properties the
sharded tier leans on — restart-stable placement, minimal
redistribution, digest fallback for hostile payloads — are pinned
exhaustively.
"""

import os
import subprocess
import sys

import pytest

from repro.frontend.lower import compile_source
from repro.service.routing import (
    KEY_DIGEST,
    KEY_MODULE,
    FingerprintResolver,
    content_fingerprint,
    hrw_order,
    module_fingerprint,
)

BACKENDS = [f"127.0.0.1:{9000 + i}" for i in range(5)]

PROGRAM = """
int total = 0;
int main() {
    for (int i = 0; i < 10; i++) total += i;
    print(total);
    return 0;
}
"""

OTHER_PROGRAM = """
int x = 1;
int main() { x = x + 41; return x; }
"""


def keys(n):
    return [f"key-{i}" for i in range(n)]


class TestHrwOrder:
    def test_order_is_a_permutation(self):
        order = hrw_order("some-key", BACKENDS)
        assert sorted(order) == sorted(BACKENDS)

    def test_deterministic_across_instances(self):
        # Two independent computations — the same agreement a router
        # restart (or a second router instance) depends on.
        for key in keys(50):
            assert hrw_order(key, BACKENDS) == hrw_order(key, list(BACKENDS))

    def test_independent_of_input_order(self):
        for key in keys(20):
            assert hrw_order(key, BACKENDS) == hrw_order(
                key, list(reversed(BACKENDS))
            )

    def test_keys_spread_over_backends(self):
        homes = {hrw_order(key, BACKENDS)[0] for key in keys(200)}
        # 200 keys over 5 backends: every backend should be somebody's
        # home (probability of a miss is astronomically small).
        assert homes == set(BACKENDS)

    def test_minimal_redistribution_on_removal(self):
        removed = BACKENDS[2]
        survivors = [b for b in BACKENDS if b != removed]
        moved = 0
        for key in keys(300):
            before = hrw_order(key, BACKENDS)[0]
            after = hrw_order(key, survivors)[0]
            if before == removed:
                # Its keys must move, and exactly to their old #2 choice.
                assert after == hrw_order(key, BACKENDS)[1]
            elif before != after:
                moved += 1
        assert moved == 0, f"{moved} keys moved whose home survived"

    def test_failover_tail_is_consistent(self):
        # Removing a backend leaves the relative order of the rest
        # unchanged — the HRW scores are per-(key, backend).
        for key in keys(50):
            full = hrw_order(key, BACKENDS)
            reduced = hrw_order(key, BACKENDS[1:])
            assert [b for b in full if b != BACKENDS[0]] == reduced

    def test_single_backend(self):
        assert hrw_order("k", ["a:1"]) == ["a:1"]


class TestFingerprintResolver:
    def test_same_source_same_key(self):
        resolver = FingerprintResolver()
        key1, kind1 = resolver.resolve({"kind": "minic", "source": PROGRAM})
        key2, kind2 = FingerprintResolver().resolve(
            {"kind": "minic", "source": PROGRAM}
        )
        assert kind1 == kind2 == KEY_MODULE
        assert key1 == key2

    def test_entry_and_args_do_not_affect_key(self):
        # The module is the locality unit: the same program with a
        # different entry/args wants the same shard's warm caches.
        resolver = FingerprintResolver()
        base, _ = resolver.resolve({"kind": "minic", "source": PROGRAM})
        varied, _ = resolver.resolve(
            {
                "kind": "minic",
                "source": PROGRAM,
                "entry": "main",
                "args": [1, 2, 3],
                "options": {"deadline_s": 9},
            }
        )
        assert varied == base

    def test_different_source_different_key(self):
        resolver = FingerprintResolver()
        one, _ = resolver.resolve({"kind": "minic", "source": PROGRAM})
        two, _ = resolver.resolve({"kind": "minic", "source": OTHER_PROGRAM})
        assert one != two

    def test_uncompilable_source_falls_back_to_stable_digest(self):
        resolver = FingerprintResolver()
        bad = {"kind": "minic", "source": "int main( {{{ not a program"}
        key1, kind = resolver.resolve(bad)
        key2, _ = FingerprintResolver().resolve(dict(bad))
        assert kind == KEY_DIGEST
        assert key1 == key2
        assert resolver.counters()["fallbacks"] == 1

    def test_non_dict_payload_falls_back(self):
        resolver = FingerprintResolver()
        for payload in (None, 7, ["a", "list"], {"source": 12}):
            key, kind = resolver.resolve(payload)
            assert kind == KEY_DIGEST
            assert key
        assert resolver.counters()["fallbacks"] == 4

    def test_unknown_kind_falls_back(self):
        key, kind = FingerprintResolver().resolve(
            {"kind": "fortran", "source": "PROGRAM HELLO"}
        )
        assert kind == KEY_DIGEST
        assert key

    def test_ir_kind_resolves_module_fingerprint(self):
        from repro.ir.printer import print_module

        ir_text = print_module(compile_source(PROGRAM))
        key, kind = FingerprintResolver().resolve(
            {"kind": "ir", "source": ir_text}
        )
        assert kind == KEY_MODULE
        assert key

    def test_cache_hits_are_counted_and_compile_once(self):
        resolver = FingerprintResolver()
        for _ in range(5):
            resolver.resolve({"kind": "minic", "source": PROGRAM})
        counters = resolver.counters()
        assert counters["compiled"] == 1
        assert counters["cache_hits"] == 4
        assert counters["entries"] == 1

    def test_lru_evicts_oldest(self):
        resolver = FingerprintResolver(cache_size=2)
        sources = [PROGRAM, OTHER_PROGRAM, PROGRAM.replace("10", "11")]
        for source in sources:
            resolver.resolve({"kind": "minic", "source": source})
        assert resolver.counters()["entries"] == 2
        # The first program was evicted: resolving it compiles again.
        resolver.resolve({"kind": "minic", "source": sources[0]})
        assert resolver.counters()["compiled"] == 4

    def test_cache_size_zero_disables_caching(self):
        resolver = FingerprintResolver(cache_size=0)
        resolver.resolve({"kind": "minic", "source": PROGRAM})
        resolver.resolve({"kind": "minic", "source": PROGRAM})
        counters = resolver.counters()
        assert counters["entries"] == 0
        assert counters["compiled"] == 2

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            FingerprintResolver(cache_size=-1)


#: Prints the routing key of every paper proxy, one per line.
_PROXY_KEYS = """
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.service.routing import module_fingerprint
for name in ORDER:
    print(name, module_fingerprint(compile_source(WORKLOADS[name].source, name))[0])
"""


def test_module_fingerprints_ignore_the_hash_seed():
    # Every router instance must agree on a key, so the key may not
    # depend on per-process state such as string hash randomization.
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run(
            [sys.executable, "-c", _PROXY_KEYS],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 8
    assert outputs[0] == outputs[1]


# -- content fingerprints: stable across compiles, and a mutation changes
# only the mutated function's key (what keeps routing sticky) ------------

INCREMENTAL_SOURCE = """
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
INCREMENTAL_MUTATED = INCREMENTAL_SOURCE.replace("i < 3", "i < 5")


def test_content_fingerprints_isolate_the_mutated_function():
    original = compile_source(INCREMENTAL_SOURCE, "incremental")
    mutated = compile_source(INCREMENTAL_MUTATED, "incremental")
    _, fps_original = module_fingerprint(original)
    _, fps_mutated = module_fingerprint(mutated)
    assert fps_original["touch_b"] != fps_mutated["touch_b"]
    assert fps_original["touch_a"] == fps_mutated["touch_a"]
    assert fps_original["main"] == fps_mutated["main"]


def test_content_fingerprint_is_stable_across_compiles():
    first = compile_source(INCREMENTAL_SOURCE, "incremental")
    second = compile_source(INCREMENTAL_SOURCE, "incremental")
    for name in first.functions:
        assert content_fingerprint(
            first.functions[name]
        ) == content_fingerprint(second.functions[name])
