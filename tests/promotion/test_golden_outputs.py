"""Golden digests: the promoted outputs of a fixed corpus, pinned.

Each digest is a sha256 over one program's observable promotion outputs:
the printed IR of the promoted module, the Table 1/2 counts, the
per-function stats and outcome statuses, and ``output_matches``.  The
corpus is the eight proxies plus ``random_program(seed)`` for seeds
0-199 from ``benchmarks/e2e/genprog.py``, the benchmark's frozen copy of
the generator, so the corpus does not drift when
``tests/property/genprog.py`` grows.  Exception text and durations are
left out, so the digests hold on every supported Python.

A performance change must leave every digest as it is.  Regenerate the
file only for an intended output change, and only together with a
CHANGES.md entry naming each changed digest and its cause::

    PYTHONPATH=src python -m tests.promotion.test_golden_outputs --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Tuple

import pytest

from benchmarks.e2e.genprog import random_program
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.promotion.pipeline import PromotionPipeline

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_outputs.json")

#: Generated programs in the corpus: ``random_program(seed)`` for these.
SEEDS = range(200)


def corpus() -> Dict[str, Tuple[str, str, Tuple[int, ...]]]:
    """``key -> (source, entry, args)`` for every program pinned."""
    programs: Dict[str, Tuple[str, str, Tuple[int, ...]]] = {}
    for name in ORDER:
        workload = WORKLOADS[name]
        programs[name] = (workload.source, workload.entry, tuple(workload.args))
    for seed in SEEDS:
        programs[f"genprog-{seed}"] = (random_program(seed), "main", ())
    return programs


def digest(key: str, source: str, entry: str, args: Tuple[int, ...]) -> str:
    """The sha256 of one program's promotion outputs."""
    module = compile_source(source, key)
    result = PromotionPipeline(entry=entry, args=list(args)).run(module)
    outcomes = {
        name: [outcome.status, outcome.stage]
        for name, outcome in sorted(result.diagnostics.outcomes.items())
    }
    doc = {
        "ir": print_module(module),
        "static": [
            result.static_before.loads,
            result.static_before.stores,
            result.static_after.loads,
            result.static_after.stores,
        ],
        "dynamic": [
            result.dynamic_before.loads,
            result.dynamic_before.stores,
            result.dynamic_after.loads,
            result.dynamic_after.stores,
        ],
        "stats": {name: s.as_dict() for name, s in sorted(result.stats.items())},
        "outcomes": outcomes,
        "output_matches": result.output_matches,
    }
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


CORPUS = corpus()


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_file_covers_the_corpus(golden):
    assert sorted(golden) == sorted(CORPUS)


@pytest.mark.parametrize("key", list(CORPUS))
def test_promoted_outputs_match_the_golden_digest(key, golden):
    assert digest(key, *CORPUS[key]) == golden[key], (
        f"{key}: promoted outputs changed; see this module's docstring"
    )


def write() -> None:
    digests = {key: digest(key, *program) for key, program in CORPUS.items()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python -m {__spec__.name} --write  (see its docstring)")
    write()
