"""Supervised-to-in-process fallback: the cause survives as structured
data.

A worker that cannot set up must not lose its cause: the pipeline
records a ``fallback_reason`` (exception type and first message line) in
the diagnostics and promotes in process.
"""

import multiprocessing
import os

import pytest

from repro.frontend.lower import compile_source
from repro.memory.aliasing import AliasModel
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ResilienceOptions, SupervisorError

SOURCE = """
int total = 0;
int step(int k) {
    for (int i = 0; i < 5; i++) total += k;
    return total;
}
int main() {
    int r = step(2);
    print(r);
    return r;
}
"""

#: Recorded at import time in the parent.  Under the fork start method a
#: worker inherits this value but has its own pid, so the factory below
#: fails only inside workers — the parent's in-process fallback still works.
_PARENT_PID = os.getpid()


def _worker_hostile_factory(module):
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("alias model refuses to build in a worker")
    return AliasModel.conservative(module)


requires_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-only failure trick needs fork inheritance",
)


@requires_fork
def test_fallback_reason_is_recorded_and_run_completes_serially():
    module = compile_source(SOURCE)
    result = PromotionPipeline(
        alias_model=_worker_hostile_factory, resilience=ResilienceOptions()
    ).run(module)
    diags = result.diagnostics

    reason = diags.fallback_reason
    assert reason is not None
    # The factory raised during the worker's setup, before any function
    # was in flight; the structured reason names the exception type and
    # its message.
    assert reason["error_type"] == "RuntimeError"
    assert "alias model refuses" in reason["detail"]
    assert diags.degraded

    # The in-process fallback finished the job with the parent-side factory.
    assert sorted(diags.promoted_functions) == ["main", "step"]
    assert result.output_matches
    assert any("falling back to serial" in warning for warning in diags.warnings)


def test_supervisor_error_carries_structure():
    error = SupervisorError("ValueError", "first line")
    assert error.as_dict() == {"error_type": "ValueError", "detail": "first line"}
    assert "ValueError: first line" in str(error)
    assert "falling back to serial" in str(error)
