"""``repro-report`` — regenerate the paper's tables from the proxies.

Usage::

    repro-report                 # all tables
    repro-report --table 2      # dynamic counts only
    repro-report --table 3      # register pressure
    repro-report --compare      # ours vs Lu-Cooper vs Mahlke
    repro-report --json         # Tables 1-3 as one JSON document
    repro-report --chaos "crash=0.15,seed=1234" --timeout 10

Table 3 reads the same measured rows as Tables 1 and 2, so the
resilience flags and exit codes cover it too.

Exit codes: 0 on success, 1 when a printed row's behaviour diverged from
the unpromoted program's, 2 on driver errors (bad flags, an unwritable
``--diagnostics-dir``), and 3 when every workload completed but only in
degraded mode (quarantines, retries, or an in-process fallback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.bench.metrics import measure_workload
from repro.bench.tables import (
    format_comparison,
    format_table1,
    format_table2,
    format_table3,
)
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.runflags import (
    add_run_flags,
    export_observability,
    observability_from,
    resilience_from,
)

#: File name ``--diagnostics-dir`` checks for a router metrics document
#: (the JSON shape ``GET /metrics`` on ``repro-route`` serves; drop a
#: ``curl`` of it here and the report summarizes the cluster's routing).
ROUTER_METRICS_FILENAME = "router-metrics.json"


def summarize_router_metrics(doc) -> Optional[str]:
    """One-line cluster summary from a router ``/metrics`` JSON document
    (:meth:`repro.service.router.PromotionRouter.metrics_doc`), or
    ``None`` when ``doc`` does not look like one."""
    if not isinstance(doc, dict) or not isinstance(doc.get("router"), dict):
        return None
    registry = doc["router"]

    def counter(name: str) -> int:
        entry = registry.get(name)
        if isinstance(entry, dict) and isinstance(entry.get("value"), (int, float)):
            return int(entry["value"])
        return 0

    rate = doc.get("stickiness_hit_rate")
    rate_text = (
        f"{float(rate) * 100:.1f}%" if isinstance(rate, (int, float)) else "n/a"
    )
    per_backend = []
    backends = doc.get("backends")
    if isinstance(backends, dict):
        for backend_id in sorted(backends):
            state = backends[backend_id]
            if isinstance(state, dict):
                per_backend.append(
                    f"{backend_id}={state.get('jobs_total', 0)}"
                    f" ({state.get('status', '?')})"
                )
    parts = [
        f"stickiness hit rate {rate_text}",
        f"{counter('router.failovers')} failover(s)",
        f"{counter('router.jobs_total')} job(s) routed",
    ]
    if per_backend:
        parts.append("per-backend jobs: " + ", ".join(per_backend))
    return "repro-report: router: " + "; ".join(parts)


def _surface_router_metrics(diagnostics_dir: str) -> None:
    """Best-effort: if the diagnostics dir holds a router metrics file,
    print its cluster summary.  Never changes the exit code."""
    path = os.path.join(diagnostics_dir, ROUTER_METRICS_FILENAME)
    if not os.path.exists(path):
        return
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        print(
            f"repro-report: warning: cannot read router metrics {path}: {exc}",
            file=sys.stderr,
        )
        return
    line = summarize_router_metrics(doc)
    if line is None:
        print(
            f"repro-report: warning: {path} is not a router metrics document",
            file=sys.stderr,
        )
        return
    print(line, file=sys.stderr)


def collect_rows(
    promoter: str = "sastry-ju",
    resilience=None,
    observability=None,
):
    return [
        measure_workload(
            WORKLOADS[name],
            promoter,
            resilience=resilience,
            observability=observability,
        )
        for name in ORDER
    ]


def collect_json(rows, resilience=None) -> dict:
    """All evaluation data as one JSON-serializable document: ``rows``
    (from :func:`collect_rows`) and their Table 3 pressure rows."""
    doc: dict = {"workloads": {}, "pressure": []}
    for row in rows:
        entry = {
            "static": {
                "loads_before": row.static_loads_before,
                "loads_after": row.static_loads_after,
                "stores_before": row.static_stores_before,
                "stores_after": row.static_stores_after,
            },
            "dynamic": {
                "loads_before": row.dynamic_loads_before,
                "loads_after": row.dynamic_loads_after,
                "stores_before": row.dynamic_stores_before,
                "stores_after": row.dynamic_stores_after,
            },
            "improvement_pct": {
                "static_loads": row.pct("static_loads"),
                "static_stores": row.pct("static_stores"),
                "dynamic_loads": row.pct("dynamic_loads"),
                "dynamic_stores": row.pct("dynamic_stores"),
                "dynamic_total": row.pct("dynamic_total"),
            },
            "behaviour_preserved": row.output_matches,
        }
        if resilience is not None:
            entry["resilience"] = {
                "quarantined": list(row.quarantined),
                "retries": row.retries,
                "degraded": row.degraded,
            }
        doc["workloads"][row.name] = entry
        for pressure in row.pressure:
            doc["pressure"].append(
                {
                    "workload": pressure.name,
                    "routine": pressure.routine,
                    "colors_before": pressure.colors_before,
                    "colors_after": pressure.colors_after,
                }
            )
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-report")
    parser.add_argument("--table", choices=["1", "2", "3", "all"], default="all")
    parser.add_argument(
        "--compare", action="store_true", help="also print the promoter comparison"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead"
    )
    add_run_flags(parser)
    parser.add_argument(
        "--diagnostics-dir",
        metavar="DIR",
        help="write each workload's pipeline diagnostics as DIR/<name>.json; "
        f"if DIR/{ROUTER_METRICS_FILENAME} is present (a saved router "
        "/metrics document) its cluster summary is surfaced too",
    )
    options = parser.parse_args(argv)

    observability = observability_from(options)
    try:
        resilience = resilience_from(options)
    except ValueError as exc:
        print(f"repro-report: {exc}", file=sys.stderr)
        return 2
    if resilience is not None and options.diagnostics_dir:
        # Give the supervisor's quarantine/attempt events a black box:
        # dumps land beside the diagnostics CI uploads.
        from repro.observability import FlightRecorder, flightrecorder

        flightrecorder.install(
            FlightRecorder("report", artifacts_dir=options.diagnostics_dir)
        )

    rows = collect_rows(resilience=resilience, observability=observability)
    # Every row whose numbers reach stdout; any divergence among them
    # fails the run.
    printed = rows
    if options.json:
        output = json.dumps(collect_json(rows, resilience), indent=2, sort_keys=True)
    else:
        sections: List[str] = []
        if options.table in ("1", "all"):
            sections.append(format_table1(rows))
        if options.table in ("2", "all"):
            sections.append(format_table2(rows))
        if options.table in ("3", "all"):
            sections.append(format_table3([p for row in rows for p in row.pressure]))
        if options.compare:
            compared = [
                rows,
                collect_rows("lucooper", resilience, observability),
                collect_rows("mahlke", resilience, observability),
            ]
            printed = [row for promoted in compared for row in promoted]
            sections.append(format_comparison(*compared))
        output = "\n\n".join(sections)
    diverged = [f"{r.name} ({r.promoter})" for r in printed if not r.output_matches]
    if diverged:
        print(f"WARNING: behaviour changed for {diverged}", file=sys.stderr)
    print(output)

    if options.diagnostics_dir:
        try:
            os.makedirs(options.diagnostics_dir, exist_ok=True)
            for row in rows:
                if row.diagnostics is None:
                    continue
                path = os.path.join(options.diagnostics_dir, f"{row.name}.json")
                with open(path, "w") as handle:
                    json.dump(row.diagnostics, handle, indent=2, sort_keys=True)
                    handle.write("\n")
        except OSError as exc:
            print(
                f"repro-report: cannot write diagnostics to "
                f"{options.diagnostics_dir}: {exc}",
                file=sys.stderr,
            )
            return 2
    if options.diagnostics_dir:
        _surface_router_metrics(options.diagnostics_dir)

    if observability is not None:
        from repro.observability import build_metadata

        metadata = build_metadata(
            profile_source=None,
            config={
                "resilience": None if resilience is None else resilience.as_dict(),
            },
            tool="repro-report",
        )
        export_observability("repro-report", options, observability, metadata)

    if resilience is not None:
        # Every printed row counts, the compared baselines' included; a
        # workload is degraded when any of its rows is.
        quarantined = sorted({name for row in printed for name in row.quarantined})
        retries = sum(row.retries for row in printed)
        degraded = {row.name for row in printed if row.degraded}
        print(
            f"repro-report: resilience: {len(quarantined)} function(s) "
            f"quarantined, {retries} retries across "
            f"{len(degraded)}/{len(rows)} degraded workload(s)"
            + (f"; quarantined: {', '.join(quarantined)}" if quarantined else ""),
            file=sys.stderr,
        )
        if degraded and not diverged:
            return 3  # a divergence (1) outranks a degraded run (3)
    return 1 if diverged else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
