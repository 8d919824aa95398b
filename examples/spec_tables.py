#!/usr/bin/env python3
"""Regenerate the paper's evaluation tables over the SPECInt95 proxies.

Equivalent to ``repro-report --table all --compare`` but shown as a
library client: collect rows per promoter, format the three tables, and
print the head-to-head against the Lu-Cooper and Mahlke baselines.

Run:  python examples/spec_tables.py          (~10 seconds)
"""

from repro.bench import (
    WORKLOADS,
    format_table1,
    format_table2,
    format_table3,
    measure_workload,
)
from repro.bench.tables import format_comparison
from repro.bench.workloads import ORDER


def main() -> None:
    ours = [measure_workload(WORKLOADS[name]) for name in ORDER]
    assert all(row.output_matches for row in ours)

    print(format_table1(ours))
    print()
    print(format_table2(ours))
    print()
    print(format_table3([p for row in ours for p in row.pressure]))
    print()
    print(
        format_comparison(
            ours,
            [measure_workload(WORKLOADS[n], "lucooper") for n in ORDER],
            [measure_workload(WORKLOADS[n], "mahlke") for n in ORDER],
        )
    )


if __name__ == "__main__":
    main()
