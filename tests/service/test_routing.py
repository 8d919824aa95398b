"""Unit tests for the pure routing layer: rendezvous hashing, the
two-choice placement rule, and the routing key.

Everything here is deterministic and IO-free, so the properties the
sharded tier leans on — restart-stable placement, minimal
redistribution, spills only to a healthy second choice, one key for
every job pair that can share a result-cache entry, no compile on the
request path — are pinned exhaustively.
"""

import hashlib
import itertools
import os
import subprocess
import sys

import pytest

import repro.frontend
import repro.frontend.lower
import repro.ir.parser
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.service.jobs import JobRequest
from repro.service.router import PromotionRouter, RouterConfig
from repro.service.routing import hrw_order, routing_key, two_choice_order
from tests.property.genprog import random_program

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

IR_PROGRAM = print_module(compile_source(PROGRAM))


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


#: ``two_choice_order`` rows over the HRW order a, b(, c): in-flight
#: counts, the healthy set, and the order the job walks.
PLACEMENT_TABLE = [
    # K = 2: an idle router and ties stay home.
    ("ab", (0, 0), "ab", "ab"),
    ("ab", (3, 3), "ab", "ab"),
    ("ab", (0, 1), "ab", "ab"),
    # A strictly busier healthy home spills to the second choice.
    ("ab", (1, 0), "ab", "ba"),
    ("ab", (5, 2), "ab", "ba"),
    # Never to an unhealthy second choice; an unhealthy home is left to
    # the failover walk.
    ("ab", (1, 0), "a", "ab"),
    ("ab", (1, 0), "b", "ab"),
    ("ab", (1, 0), "", "ab"),
    # K = 3: only the first two entries ever trade places.
    ("abc", (1, 0, 0), "abc", "bac"),
    ("abc", (2, 1, 0), "abc", "bac"),
    ("abc", (1, 1, 0), "abc", "abc"),
    ("abc", (1, 2, 0), "abc", "abc"),
    ("abc", (1, 0, 0), "ac", "abc"),
    ("abc", (1, 0, 0), "bc", "abc"),
    ("abc", (0, 0, 0), "c", "abc"),
]


@pytest.mark.parametrize("order, inflight, healthy, placed", PLACEMENT_TABLE)
def test_two_choice_placement_table(order, inflight, healthy, placed):
    counts = dict(zip(order, inflight))
    assert two_choice_order(list(order), counts, set(healthy)) == list(placed)


@pytest.mark.parametrize("k", [2, 3])
def test_two_choice_placement_over_every_combination(k):
    # Every in-flight count in 0..2 and every healthy subset, for K = 2
    # and 3, checked against the rule stated one clause at a time.
    order = [f"127.0.0.1:{9000 + i}" for i in range(k)]
    for inflight in itertools.product(range(3), repeat=k):
        counts = dict(zip(order, inflight))
        for mask in itertools.product((False, True), repeat=k):
            healthy = {b for b, up in zip(order, mask) if up}
            placed = two_choice_order(order, counts, healthy)
            home, second = order[0], order[1]
            # Only the first two entries may trade places.
            assert placed[2:] == order[2:]
            assert placed[:2] in ([home, second], [second, home])
            busier = counts[home] > counts[second]
            spills = placed[0] == second
            assert spills == (busier and {home, second} <= healthy), (counts, healthy)
            # Ties go home.
            if counts[home] == counts[second]:
                assert not spills


def test_two_choice_placement_is_pure():
    order = ["a", "b", "c"]
    counts = {"a": 2, "b": 0, "c": 0}
    healthy = {"a", "b", "c"}
    assert two_choice_order(order, counts, healthy) == ["b", "a", "c"]
    assert order == ["a", "b", "c"]
    assert counts == {"a": 2, "b": 0, "c": 0}
    assert two_choice_order(["a"], {"a": 9}, {"a"}) == ["a"]


class TestFingerprintResolver:
    """:func:`routing_key`, the digest of a payload's kind and source."""

    def test_same_source_same_key(self):
        key1 = routing_key({"kind": "minic", "source": PROGRAM})
        key2 = routing_key({"kind": "minic", "source": PROGRAM})
        assert key1 == key2
        # ``kind`` defaults to minic, as JobRequest defaults it.
        assert routing_key({"source": PROGRAM}) == key1

    def test_entry_and_args_do_not_affect_key(self):
        # The program is the locality unit: the same program with a
        # different entry/args still goes to the same shard.
        base = routing_key({"kind": "minic", "source": PROGRAM})
        varied = routing_key(
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
        one = routing_key({"kind": "minic", "source": PROGRAM})
        two = routing_key({"kind": "minic", "source": OTHER_PROGRAM})
        assert one != two

    def test_uncompilable_source_falls_back_to_stable_digest(self):
        bad = {"kind": "minic", "source": "int main( {{{ not a program"}
        key = routing_key(bad)
        assert key == routing_key(dict(bad))
        assert key == hashlib.sha256(("minic\x00" + bad["source"]).encode()).hexdigest()

    def test_non_dict_payload_falls_back(self):
        payloads = (None, 7, ["a", "list"], {"source": 12})
        keys = [routing_key(payload) for payload in payloads]
        assert keys == [routing_key(payload) for payload in payloads]
        assert len(set(keys)) == len(payloads)

    def test_unknown_kind_falls_back(self):
        fortran = routing_key({"kind": "fortran", "source": "PROGRAM HELLO"})
        assert fortran
        assert fortran != routing_key({"kind": "minic", "source": "PROGRAM HELLO"})


#: A valid traceparent, so trace-carrying payloads pass validation.
TRACE = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


def _variants(source):
    """Payloads over one source: for each kind and (entry, args) pair, the
    envelope with and without an explicit default kind, with options,
    and with a trace — none of which the result cache keys on."""
    for entry, args in (("main", []), ("main", [3]), ("helper", [1, 2])):
        base = {"source": source, "entry": entry, "args": args}
        yield dict(base)
        yield dict(base, kind="minic")
        yield dict(base, options={"deadline_s": 5, "max_steps": 1000})
        yield dict(base, options={"retries": 1, "timeout_s": 2.5})
        yield dict(base, trace=TRACE)
        yield dict(base, kind="ir")
        yield dict(base, kind="ir", options={"chaos": "crash=1.0"}, trace=TRACE)


def test_equal_cache_material_means_equal_routing_key():
    # A daemon's result cache keys on cache_key_material(), so two jobs
    # can share an entry only if they share a key, and hence a home.
    sources = [WORKLOADS[name].source for name in ORDER]
    sources += [random_program(seed) for seed in range(200)]
    keys_by_material = {}
    for source in sources:
        for payload in _variants(source):
            material = JobRequest.from_payload(payload).cache_key_material()
            keys_by_material.setdefault(material, set()).add(routing_key(payload))
    # 2 kinds x 3 (entry, args) pairs per distinct source.
    assert len(keys_by_material) == 6 * len(set(sources))
    assert all(len(keys) == 1 for keys in keys_by_material.values())


def test_whitespace_variant_gets_its_own_key():
    # Cache material is the exact source text, so a whitespace-only
    # variant never shared a cache entry; it need not share a home.
    for name in ORDER:
        source = WORKLOADS[name].source
        original = {"kind": "minic", "source": source}
        variant = {"kind": "minic", "source": source + "\n"}
        assert (
            JobRequest.from_payload(original).cache_key_material()
            != JobRequest.from_payload(variant).cache_key_material()
        )
        assert routing_key(original) != routing_key(variant)


def test_plan_never_compiles_or_parses(monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        # Recorded as well as raised: a caller that swallows the error
        # and falls back to a digest must still fail this test.
        calls.append(args)
        raise AssertionError("the router compiled or parsed a payload")

    monkeypatch.setattr(repro.frontend.lower, "compile_source", refuse)
    monkeypatch.setattr(repro.frontend, "compile_source", refuse)
    monkeypatch.setattr(repro.ir.parser, "parse_module", refuse)
    router = PromotionRouter(RouterConfig([("127.0.0.1", 9001), ("127.0.0.1", 9002)]))
    huge = "int main() { return 0; }\n"
    huge += " " * (2_000_000 - len(huge))
    payloads = [
        {"kind": "minic", "source": PROGRAM},
        {"kind": "ir", "source": IR_PROGRAM},
        {"kind": "minic", "source": "int main( {{{ not a program"},
        {"kind": "minic", "source": huge},
    ]
    for payload in payloads:
        key, order = router.plan(payload)
        assert key == routing_key(payload)
        assert order == hrw_order(key, router.backend_ids)
    assert calls == []


#: Prints the routing key of every paper proxy, one per line.
_PROXY_KEYS = """
from repro.bench.workloads import ORDER, WORKLOADS
from repro.service.routing import routing_key
for name in ORDER:
    print(name, routing_key({"kind": "minic", "source": WORKLOADS[name].source}))
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
