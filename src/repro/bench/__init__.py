"""The evaluation harness: SPECInt95-proxy workloads, metric collection,
and the paper's tables.

No SPEC sources or inputs exist offline, so each benchmark is a mini-C
program written to exhibit the memory-access character the paper reports
for its SPEC namesake (see each workload module's docstring and
DESIGN.md's substitution table).  The harness reproduces:

* **Table 1** — static load/store counts before/after promotion;
* **Table 2** — dynamic load/store counts before/after promotion;
* **Table 3** — register pressure (colors needed) before/after.
"""

from repro.bench.metrics import BenchmarkRow, measure_workload
from repro.bench.tables import format_table1, format_table2, format_table3
from repro.bench.workloads import WORKLOADS, Workload

__all__ = [
    "BenchmarkRow",
    "WORKLOADS",
    "Workload",
    "format_table1",
    "format_table2",
    "format_table3",
    "measure_workload",
]
