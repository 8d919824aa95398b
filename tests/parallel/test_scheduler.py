"""Module-grain units: parallel-arm job resolution and the supervised
worker's per-function reply."""

import os

import pytest

from repro.bench.timing import resolve_jobs
from repro.robustness.diagnostics import FunctionOutcome
from repro.robustness.supervise import WorkerReply


def test_resolve_jobs_defaults_to_cpu_count():
    expected = max(1, os.cpu_count() or 1)
    assert resolve_jobs(None) == expected
    assert resolve_jobs(0) == expected


def test_resolve_jobs_passes_positive_counts_through():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7


def test_resolve_jobs_rejects_negative():
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        resolve_jobs(-2)


def test_function_result_defaults():
    result = WorkerReply("f", FunctionOutcome.PROMOTED)
    assert result.name == "f"
    assert result.status == "promoted"
    assert result.stage is None
    assert result.payload is None
    assert result.duration_ms == 0.0
