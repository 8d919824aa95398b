"""Run the end-to-end benchmark.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload gen-cold --seed 3 --seconds 15 --trace 0

prints every metric as ``name value unit``, then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of ``BENCHMARK.json``, or with ``--trace 1``
its ``per_layer`` metrics.  A traced run also writes a Chrome trace to
``benchmarks/e2e/out/`` and exits nonzero when a layer went missing.

Without ``--workload`` every workload runs, each in a fresh child
process, ``--runs`` times with seeds ``seed, seed+1, ...``; every run's
document and a per-metric median/IQR summary go to ``--out``::

    python -m benchmarks.e2e --seed 0            # all four workloads
    python -m benchmarks.e2e --seed 0 --trace    # the per-layer pass
    python -m benchmarks.e2e --runs 5            # five seeds each, summarised
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e import layers, workloads  # noqa: E402

#: Window length when none is given; ``BENCHMARK.json`` uses the same.
RUN_SECONDS = 15


def one_run(name: str, seed: int, seconds: float, trace: bool, doc_path=None) -> int:
    try:
        m = workloads.run(name, seed, seconds, trace)
    except layers.TraceGuardError as exc:
        print(f"trace guard: {exc}", file=sys.stderr)
        return 3
    if trace:
        metrics = layers.metrics(m.layers)
    else:
        metrics = workloads.end_to_end(m)
    shown = dict(metrics)
    shown.update(workloads.reported(m))
    for metric, (value, unit) in shown.items():
        print(f"{metric} {value} {unit}")
    for failure in m.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": m.failed == 0,
        "attempted": len(m.ops),
        "failed": m.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    if doc_path is not None:
        doc = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "result": result,
            "reported": {key: {"value": v, "unit": u} for key, (v, u) in shown.items()},
            "setup_reps_s": m.setup_s,
            "run_wall_s": time.perf_counter() - STARTED,
            "failures": m.failures,
        }
        with open(doc_path, "w") as handle:
            json.dump(doc, handle, indent=1)
    print(json.dumps(result), flush=True)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def all_runs(options) -> int:
    os.makedirs(options.out, exist_ok=True)
    suffix = "-trace" if options.trace else ""
    summary = {}
    status = 0
    for name in workloads.NAMES:
        values = {}
        for offset in range(options.runs):
            seed = options.seed + offset
            doc_path = os.path.join(options.out, f"run-{name}-seed{seed}{suffix}.json")
            argv = [
                sys.executable,
                os.path.join(HERE, "run.py"),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(options.seconds),
                "--trace", "1" if options.trace else "0",
                "--doc", doc_path,
            ]
            print(f"== {name} seed {seed}", flush=True)
            child = subprocess.run(argv)
            if child.returncode != 0:
                print(f"{name} seed {seed}: exit {child.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(doc_path) as handle:
                doc = json.load(handle)
            if not doc["result"]["correct"]:
                status = 1
            for key, metric in doc["reported"].items():
                values.setdefault(key, (metric["unit"], []))[1].append(metric["value"])
        summary[name] = {}
        for key, (unit, vals) in values.items():
            q1, median, q3 = quartiles(vals)
            summary[name][key] = {
                "unit": unit,
                "values": vals,
                "median": median,
                "q1": q1,
                "q3": q3,
                "iqr_share": (q3 - q1) / median if median else 0.0,
            }
    with open(os.path.join(options.out, f"summary{suffix}.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    print(f"\n{'workload':<14}{'metric':<34}{'median':>14}{'iqr/median':>12}  unit")
    for name, metrics in summary.items():
        for key, row in metrics.items():
            print(
                f"{name:<14}{key:<34}{row['median']:>14.6g}"
                f"{row['iqr_share']:>12.4f}  {row['unit']}"
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): the per-layer pass",
    )
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (all-workload mode)")
    parser.add_argument("--out", default=workloads.OUT_DIR, help="where run documents go")
    parser.add_argument("--doc", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if options.setup_probe:
        workloads.setup_probe(options.workload, options.seed)
        print("ready", flush=True)
        return 0
    if options.workload is not None:
        return one_run(options.workload, options.seed, options.seconds, bool(options.trace), options.doc)
    return all_runs(options)


if __name__ == "__main__":
    sys.exit(main())
