"""Wall-clock timing of the promotion pipeline's execution layers.

Two arms over the 8-workload suite, run one after the other in one
process:

``baseline``
    the classic execution layer — the interpreter's dispatch loop only;
``serial``
    the optimized layer — the tiered interpreter, which compiles hot
    functions to Python source.

Every arm records per-workload wall-clock seconds and a fingerprint of
everything observable — the transformed IR, the Table 1/2 counts, the
per-function stats, and the canonicalized diagnostics — so the harness
*proves* the arms computed identical results before comparing their
speed.  ``outputs_identical`` is false (and the CI perf gate fails) the
moment an optimization changes an output bit.

Durations are wall-clock and machine-dependent; the committed baseline
(``benchmarks/BENCH_baseline.json``) is compared by **speedup ratios**,
which transfer across machines, not by absolute seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from typing import Dict, List, Optional

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.promotion.pipeline import PromotionPipeline

ARMS = ("baseline", "serial")

#: Speedup may regress to this fraction of the committed baseline's
#: before the perf gate fails (0.75 == "no more than 25% slower").
GATE_RATIO = 0.75


def run_workload_arm(name: str, arm: str) -> Dict[str, object]:
    """Promote one workload under one arm; returns timing + fingerprint."""
    workload = WORKLOADS[name]
    module = compile_source(workload.source, name)
    optimized = arm != "baseline"
    pipeline = PromotionPipeline(
        entry=workload.entry,
        args=list(workload.args),
        compiled_interpreter=optimized,
    )
    started = time.perf_counter()
    result = pipeline.run(module)
    elapsed = time.perf_counter() - started
    return {
        "workload": name,
        "seconds": elapsed,
        "fingerprint": _fingerprint(module, result),
    }


def _fingerprint(module, result) -> str:
    """Hash of every observable output of one workload's promotion."""
    diagnostics = json.loads(result.diagnostics.to_json())  # a copy to edit
    for outcome in diagnostics["functions"]:
        outcome["duration_ms"] = 0.0  # timing is not an output
    for history in diagnostics["attempt_histories"].values():
        for record in history["records"]:
            record["duration_ms"] = 0.0
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
        "output_matches": result.output_matches,
        "diagnostics": diagnostics,
    }
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def time_suite(workloads: Optional[List[str]] = None) -> Dict[str, object]:
    """Run both arms over the suite; returns the BENCH document."""
    names = list(workloads or ORDER)
    arms: Dict[str, dict] = {}
    fingerprints: Dict[str, Dict[str, str]] = {}
    for arm in ARMS:
        started = time.perf_counter()
        rows = [run_workload_arm(name, arm) for name in names]
        total = time.perf_counter() - started
        fingerprints[arm] = {row["workload"]: row["fingerprint"] for row in rows}
        arms[arm] = {
            "total_seconds": round(total, 4),
            "workloads": {row["workload"]: round(row["seconds"], 4) for row in rows},
        }
    return {
        "suite": names,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "arms": arms,
        "speedup": {
            "serial_vs_baseline": _ratio(
                arms["baseline"]["total_seconds"], arms["serial"]["total_seconds"]
            ),
        },
        "outputs_identical": fingerprints["baseline"] == fingerprints["serial"],
    }


def _ratio(reference: float, measured: float) -> float:
    return round(reference / measured, 3) if measured else 0.0


def check_against_baseline(
    bench: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Perf-gate verdict: list of failure messages (empty == pass).

    Gates on output identity and on *speedup ratios* against the
    committed baseline — absolute seconds do not transfer between
    machines, relative speedups approximately do.
    """
    failures: List[str] = []
    if not bench.get("outputs_identical", False):
        failures.append(
            "baseline and serial arms produced different outputs "
            "(IR, tables, or diagnostics diverged)"
        )
    reference_speedup = baseline.get("speedup")
    if not isinstance(reference_speedup, dict):
        reference_speedup = {}
    for key, reference in reference_speedup.items():
        measured = (bench.get("speedup") or {}).get(key)
        # Malformed baselines may carry junk values; the gate only
        # compares real numbers.
        if not isinstance(reference, (int, float)) or not reference:
            continue
        if not isinstance(measured, (int, float)):
            continue
        if measured < reference * GATE_RATIO:
            failures.append(
                f"speedup {key} regressed: {measured:.2f}x measured vs "
                f"{reference:.2f}x in the committed baseline "
                f"(gate: >= {reference * GATE_RATIO:.2f}x)"
            )
    return failures


def write_bench(path: str, bench: Dict[str, object]) -> None:
    with open(path, "w") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")
