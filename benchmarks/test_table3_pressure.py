"""Table 3 — register pressure before/after promotion.

"Register promotion indeed increases register pressure and requires more
registers to color the graph.  The effect is more pronounced on routines
that require smaller numbers of colors."  We measure the same quantity —
the number of colors needed to color the interference graph — on the
routines with promotion opportunities from each proxy workload.
"""

from __future__ import annotations

from repro.bench.tables import format_table3
from repro.bench.workloads import ORDER


def check_table3_shape(pressure) -> None:
    rows = [row for name in ORDER for row in pressure[name]]
    deltas = [row.colors_after - row.colors_before for row in rows]

    # Pressure rises in aggregate...
    assert sum(deltas) > 0
    # ...and at least two routines visibly need more colors.
    assert sum(1 for d in deltas if d > 0) >= 2
    # No routine's pressure collapses (a big drop would mean promotion
    # broke the routine rather than extended live ranges).
    assert all(d >= -1 for d in deltas)

    # The paper's "more pronounced on routines that require smaller
    # numbers of colors": the largest increase happens at or below the
    # median pre-promotion color count.
    biggest = max(rows, key=lambda r: r.colors_after - r.colors_before)
    befores = sorted(r.colors_before for r in rows)
    median = befores[len(befores) // 2]
    assert biggest.colors_before <= median + 1

    # vortex: no promotion, no pressure change.
    for row in pressure["vortex"]:
        assert row.colors_after == row.colors_before


def test_table3_regenerate_and_check(benchmark, pressure):
    rows = [row for name in ORDER for row in pressure[name]]
    table = benchmark.pedantic(format_table3, args=(rows,), rounds=3, iterations=1)
    assert "Table 3" in table
    check_table3_shape(pressure)


def test_table3_shape(pressure):
    check_table3_shape(pressure)


def test_table3_collection_cost(benchmark):
    """Cost of one measured row, Table 3 included (compile, promote,
    phase 1 again for "before", liveness, interference, coloring
    search)."""
    from repro.bench.metrics import measure_workload
    from repro.bench.workloads import WORKLOADS

    row = benchmark.pedantic(
        measure_workload, args=(WORKLOADS["ijpeg"],), rounds=3, iterations=1
    )
    assert row.pressure and all(r.colors_before >= 1 for r in row.pressure)
