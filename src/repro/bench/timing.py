"""Wall-clock timing of the promotion pipeline's execution layers.

Three arms over the 8-workload suite, compared on one machine in one
process tree:

``baseline``
    the classic execution layer — interpreter dispatch loop only,
    serial (``jobs=1``);
``serial``
    the optimized layer, still serial — the tiered interpreter, which
    compiles hot functions to Python source;
``parallel``
    the optimized layer fanned out over ``jobs`` worker processes at
    workload granularity: a plain ``ProcessPoolExecutor`` map in which
    each task promotes one whole workload.  Workers are started *before*
    the clock (``pool_warmup_seconds`` reports that separately), and
    workloads are submitted longest-first by the serial arm's measured
    seconds, so the timed window holds promotion work, not spin-up.

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
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.promotion.pipeline import PromotionPipeline

ARMS = ("baseline", "serial", "parallel")

#: Speedup may regress to this fraction of the committed baseline's
#: before the perf gate fails (0.75 == "no more than 25% slower").
GATE_RATIO = 0.75

#: Absolute floor for ``parallel_vs_serial`` on multi-core runners: the
#: parallel arm must at least match serial.  Checked independently of the
#: committed baseline, so a baseline recorded on a single-core machine
#: cannot excuse a multi-core regression.
PARALLEL_FLOOR = 1.0


def run_workload_arm(name: str, arm: str) -> Dict[str, object]:
    """Promote one workload under one arm; returns timing + fingerprint.

    Module-level (and with picklable inputs/outputs) so the parallel arm
    can run it in worker processes.
    """
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


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one worker per
    CPU; anything else must be a positive worker count."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _started_worker(pause_s: float) -> int:
    """Warm-up task: holds its worker briefly so every worker gets one."""
    time.sleep(pause_s)
    return os.getpid()


def _run_arm(
    arm: str, names: List[str], jobs: int, order: List[str]
) -> Tuple[List[Dict[str, object]], float, Optional[float]]:
    """Time one arm: its rows in ``names`` order, its total seconds, and
    (parallel arm only) the seconds spent starting the workers.  The
    parallel arm submits workloads in ``order`` to ``jobs`` pre-started
    worker processes."""
    if arm != "parallel" or jobs <= 1:
        started = time.perf_counter()
        rows = [run_workload_arm(name, arm) for name in names]
        return rows, time.perf_counter() - started, None
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        started = time.perf_counter()
        list(pool.map(_started_worker, [0.05] * jobs))
        warmup = time.perf_counter() - started
        started = time.perf_counter()
        done = pool.map(run_workload_arm, order, [arm] * len(order))
        by_name = {row["workload"]: row for row in done}
        total = time.perf_counter() - started
    return [by_name[name] for name in names], total, warmup


def time_suite(
    jobs: int = 4, workloads: Optional[List[str]] = None
) -> Dict[str, object]:
    """Run all three arms over the suite; returns the BENCH document."""
    names = list(workloads or ORDER)
    jobs = resolve_jobs(jobs)

    arms: Dict[str, dict] = {}
    fingerprints: Dict[str, Dict[str, str]] = {}
    order = names
    for arm in ARMS:
        rows, total, warmup = _run_arm(arm, names, jobs, order)
        entry: Dict[str, object] = {"total_seconds": round(total, 4)}
        if warmup is not None:
            entry["pool_warmup_seconds"] = round(warmup, 4)
        if arm == "serial":
            # Longest first: the best available balance for the
            # parallel arm's two-or-more workers.
            seconds = {row["workload"]: row["seconds"] for row in rows}
            order = sorted(names, key=lambda name: -seconds[name])
        fingerprints[arm] = {row["workload"]: row["fingerprint"] for row in rows}
        entry["workloads"] = {
            row["workload"]: round(row["seconds"], 4) for row in rows
        }
        arms[arm] = entry

    identical = all(
        fingerprints["baseline"][name]
        == fingerprints["serial"][name]
        == fingerprints["parallel"][name]
        for name in names
    )
    baseline_s = arms["baseline"]["total_seconds"]
    serial_s = arms["serial"]["total_seconds"]
    parallel_s = arms["parallel"]["total_seconds"]
    return {
        "suite": names,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "arms": arms,
        "speedup": {
            "serial_vs_baseline": _ratio(baseline_s, serial_s),
            "parallel_vs_baseline": _ratio(baseline_s, parallel_s),
            "parallel_vs_serial": _ratio(serial_s, parallel_s),
        },
        "outputs_identical": identical,
    }


def _ratio(reference: float, measured: float) -> float:
    return round(reference / measured, 3) if measured else 0.0


def parallel_gate_skip_reason(
    bench: Dict[str, object], baseline: Dict[str, object]
) -> Optional[str]:
    """Why parallel speedup gating would be meaningless here, or None.

    A document recorded on a machine with fewer than 2 CPUs ran its
    "parallel" arm serially — its parallel-vs-* ratios measure process
    overhead, not parallelism, so comparing against (or from) them is
    noise, not signal.  Either side of the comparison being single-core
    disables the parallel keys; a *missing* ``cpu_count`` (documents
    from before the field existed) is unknown, not single-core, and
    does not skip.
    """
    for label, doc in (("this runner", bench), ("the committed baseline", baseline)):
        cpus = doc.get("cpu_count")
        if isinstance(cpus, int) and cpus < 2:
            return (
                f"{label} recorded cpu_count={cpus}, so its parallel arm "
                "ran serially and parallel speedup ratios carry no signal"
            )
    return None


def check_against_baseline(
    bench: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Perf-gate verdict: list of failure messages (empty == pass).

    Gates on output identity and on *speedup ratios* against the
    committed baseline — absolute seconds do not transfer between
    machines, relative speedups approximately do.  Parallel-arm ratios
    are only gated when both sides actually had parallelism available
    (:func:`parallel_gate_skip_reason`).
    """
    failures: List[str] = []
    if not bench.get("outputs_identical", False):
        failures.append(
            "serial and parallel arms produced different outputs "
            "(IR, tables, or diagnostics diverged)"
        )
    # The absolute floor: on a real multi-core runner the parallel arm
    # must beat (or at least match) serial, no matter what the committed
    # baseline says.  Keyed on *this* runner's cpu_count only — a
    # single-core runner has no parallelism to measure (blind spot kept).
    cpus = bench.get("cpu_count")
    if isinstance(cpus, int) and cpus >= 2:
        measured = (bench.get("speedup") or {}).get("parallel_vs_serial")
        if isinstance(measured, (int, float)) and measured < PARALLEL_FLOOR:
            failures.append(
                f"parallel arm lost to serial on a {cpus}-core runner: "
                f"parallel_vs_serial = {measured:.2f}x "
                f"(floor: >= {PARALLEL_FLOOR:.2f}x)"
            )
    skip_parallel = parallel_gate_skip_reason(bench, baseline) is not None
    reference_speedup = baseline.get("speedup")
    if not isinstance(reference_speedup, dict):
        reference_speedup = {}
    for key, reference in reference_speedup.items():
        if skip_parallel and key.startswith("parallel"):
            continue
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
