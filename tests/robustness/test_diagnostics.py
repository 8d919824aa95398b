"""Structured diagnostics: summaries, queries, and JSON serialization."""

import json

from repro.robustness import (
    BisectionReport,
    FunctionOutcome,
    PipelineDiagnostics,
)


def populated():
    diags = PipelineDiagnostics()
    diags.record_promoted("fast", duration_ms=1.25, webs_promoted=3)
    diags.record_rollback(
        "broken",
        stage="verify",
        error=AssertionError("broken: phi incoming blocks != preds\nIR dump"),
        duration_ms=2.5,
    )
    diags.record_skip("weird", stage="prepare", reason="unreachable entry")
    diags.warn("profiling run hit the interpreter limit")
    diags.bisection = BisectionReport(["fast", "broken"], ["broken"], 4, True)
    return diags


def test_summary_and_queries():
    diags = populated()
    assert diags.summary() == "1 promoted, 1 rolled back, 1 skipped"
    assert diags.promoted_functions == ["fast"]
    assert diags.rolled_back_functions == ["broken"]
    assert diags.skipped_functions == ["weird"]
    assert not diags.clean
    assert PipelineDiagnostics().clean


def test_rollback_reason_is_first_error_line():
    diags = populated()
    outcome = diags.outcomes["broken"]
    assert outcome.status == FunctionOutcome.ROLLED_BACK
    assert outcome.reason == "broken: phi incoming blocks != preds"
    assert outcome.error_type == "AssertionError"


def test_json_round_trip():
    diags = populated()
    data = json.loads(diags.to_json())
    assert data["summary"] == "1 promoted, 1 rolled back, 1 skipped"
    assert data["warnings"] == ["profiling run hit the interpreter limit"]
    assert data["bisection"] == {
        "candidates": ["fast", "broken"],
        "culprits": ["broken"],
        "tests_run": 4,
        "resolved": True,
    }
    by_name = {entry["name"]: entry for entry in data["functions"]}
    assert by_name["fast"]["status"] == "promoted"
    assert by_name["fast"]["webs_promoted"] == 3
    assert by_name["broken"]["stage"] == "verify"
    assert by_name["weird"]["reason"] == "unreachable entry"


def test_write_to_file(tmp_path):
    path = tmp_path / "diag.json"
    populated().write(str(path))
    data = json.loads(path.read_text())
    assert data["summary"] == "1 promoted, 1 rolled back, 1 skipped"


def test_empty_diagnostics_serialize():
    data = json.loads(PipelineDiagnostics().to_json())
    assert data == {
        "summary": "0 promoted, 0 rolled back, 0 skipped",
        "profile_source": None,
        "functions": [],
        "warnings": [],
        "bisection": None,
        "fallback_reason": None,
        "attempt_histories": {},
        "resilience": None,
        "observability": None,
        "decisions": None,
    }


def test_quarantine_outcome_and_summary_suffix():
    diags = populated()
    diags.record_quarantine(
        "poison",
        reason="3 failed attempt(s), last: worker-crash",
        error_type="WorkerCrashError",
        attempts=3,
    )
    assert diags.summary() == "1 promoted, 1 rolled back, 1 skipped, 1 quarantined"
    assert diags.quarantined_functions == ["poison"]
    assert not diags.clean
    entry = diags.as_dict()["functions"][-1]
    assert entry["status"] == "quarantined"
    assert entry["attempts"] == 3


def test_degraded_property():
    diags = PipelineDiagnostics()
    assert not diags.degraded
    diags.fallback_reason = {
        "error_type": "PicklingError",
        "detail": "cannot pickle lambda",
        "function": None,
    }
    assert diags.degraded
    diags.fallback_reason = None
    diags.resilience = {"retries": 0, "timeouts": 0, "quarantined": []}
    assert not diags.degraded
    diags.resilience["retries"] = 1
    assert diags.degraded
    diags.resilience = None
    diags.record_quarantine("poison")
    assert diags.degraded
