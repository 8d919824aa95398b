"""The disabled-path overhead estimate and its gate."""

import pytest

from repro.bench.overhead import (
    OVERHEAD_GATE_PCT,
    measure_null_op_cost,
    measure_workload_overhead,
)
from repro.bench.workloads import ORDER, WORKLOADS


@pytest.fixture(scope="module")
def null_op_cost():
    return measure_null_op_cost()


def test_null_op_cost_is_sub_microsecond_scale():
    cost = measure_null_op_cost(iterations=20_000)
    assert 0 < cost < 50e-6  # generous even for a loaded CI box


def test_workload_probe_reports_the_gate_inputs():
    row = measure_workload_overhead(WORKLOADS["li"], null_op_cost_s=1e-7)
    assert row["workload"] == "li"
    assert row["instrumentation_events"] > 0
    assert row["disabled_seconds"] > 0
    assert row["estimated_overhead_pct"] >= 0


@pytest.mark.parametrize("name", ORDER)
def test_real_probe_stays_within_the_gate(name, null_op_cost):
    row = measure_workload_overhead(WORKLOADS[name], null_op_cost)
    assert row["estimated_overhead_pct"] <= OVERHEAD_GATE_PCT, row
