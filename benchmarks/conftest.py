"""Shared fixtures for the benchmark harness.

Row collection is cached per session so the shape assertions in the
table benchmarks do not recompute the full pipeline per test.
"""

from __future__ import annotations

import pytest

from repro.bench.metrics import measure_workload
from repro.bench.workloads import ORDER, WORKLOADS


@pytest.fixture(scope="session")
def sastry_rows():
    return {name: measure_workload(WORKLOADS[name], "sastry-ju") for name in ORDER}


@pytest.fixture(scope="session")
def lucooper_rows():
    return {name: measure_workload(WORKLOADS[name], "lucooper") for name in ORDER}


@pytest.fixture(scope="session")
def mahlke_rows():
    return {name: measure_workload(WORKLOADS[name], "mahlke") for name in ORDER}


@pytest.fixture(scope="session")
def pressure(sastry_rows):
    return {name: sastry_rows[name].pressure for name in ORDER}
