"""Strict validation of the job envelope.

A malformed payload must bounce with a structured JobValidationError
naming the offending field — before it can occupy a worker slot.
"""

import pytest

from repro.service.errors import JobValidationError
from repro.service.jobs import JobRequest

PROGRAM = "int main() { return 7; }"


def test_minimal_payload_fills_defaults():
    job = JobRequest.from_payload({"source": PROGRAM})
    assert job.kind == "minic"
    assert job.entry == "main"
    assert job.args == []
    assert job.deadline_s is None
    assert not job.wants_resilience
    assert job.is_default_run


def test_full_payload_round_trips():
    job = JobRequest.from_payload(
        {
            "kind": "minic",
            "source": PROGRAM,
            "entry": "main",
            "args": [1, 2],
            "options": {
                "deadline_s": 5,
                "timeout_s": 2.5,
                "retries": 1,
                "chaos": "crash=0.5,seed=9",
                "max_steps": 1000,
            },
        }
    )
    assert job.deadline_s == 5.0
    assert job.timeout_s == 2.5
    assert job.retries == 1
    assert job.chaos == "crash=0.5,seed=9"
    assert job.max_steps == 1000
    assert job.wants_resilience
    assert not job.is_default_run


def test_trace_field_parses_into_a_trace_context():
    header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
    job = JobRequest.from_payload({"source": PROGRAM, "trace": header})
    assert job.trace is not None
    assert job.trace.trace_id == "ab" * 16
    assert job.trace.parent_span_id == "cd" * 8
    # Absent means no trace, not an error.
    assert JobRequest.from_payload({"source": PROGRAM}).trace is None


@pytest.mark.parametrize(
    "payload,fragment",
    [
        pytest.param("nope", "must be a JSON object", id="non-object"),
        pytest.param({"source": PROGRAM, "bogus": 1}, "unknown job field", id="unknown-field"),
        pytest.param({"source": PROGRAM, "kind": "rust"}, "kind must be one of", id="bad-kind"),
        pytest.param({}, "'source' must be a string", id="missing-source"),
        pytest.param({"source": 7}, "'source' must be a string", id="non-string-source"),
        pytest.param({"source": "  "}, "must be non-empty", id="blank-source"),
        pytest.param({"source": PROGRAM, "entry": "not an id"}, "identifier", id="bad-entry"),
        pytest.param({"source": PROGRAM, "args": "1,2"}, "list of integers", id="args-string"),
        pytest.param({"source": PROGRAM, "args": [True]}, "list of integers", id="args-bool"),
        pytest.param({"source": PROGRAM, "args": list(range(65))}, "limited to 64", id="args-flood"),
        pytest.param({"source": PROGRAM, "options": []}, "'options' must be an object", id="options-list"),
        pytest.param({"source": PROGRAM, "options": {"nope": 1}}, "unknown job option", id="unknown-option"),
        pytest.param({"source": PROGRAM, "options": {"jobs": 2}}, "unknown job option(s): jobs", id="unknown-option-jobs"),
        pytest.param({"source": PROGRAM, "options": {"jobs": True}}, "unknown job option(s): jobs", id="jobs-bool"),
        pytest.param({"source": PROGRAM, "options": {"jobs": 65}}, "unknown job option(s): jobs", id="jobs-flood"),
        pytest.param({"source": PROGRAM, "options": {"use_cache": True}}, "unknown job option(s): use_cache", id="unknown-option-use-cache"),
        pytest.param({"source": PROGRAM, "options": {"deadline_s": 0}}, "'deadline_s' must be > 0", id="zero-deadline"),
        pytest.param({"source": PROGRAM, "options": {"deadline_s": "fast"}}, "must be a number", id="deadline-string"),
        pytest.param({"source": PROGRAM, "options": {"timeout_s": -1}}, "'timeout_s' must be > 0", id="negative-timeout"),
        pytest.param({"source": PROGRAM, "options": {"retries": 17}}, "0..16", id="retries-flood"),
        pytest.param({"source": PROGRAM, "options": {"retries": False}}, "'retries' must be an integer", id="retries-bool"),
        pytest.param({"source": PROGRAM, "options": {"chaos": 3}}, "'chaos' must be a string", id="chaos-int"),
        pytest.param({"source": PROGRAM, "options": {"chaos": "crash=lots"}}, "job option 'chaos'", id="chaos-junk"),
        pytest.param({"source": PROGRAM, "options": {"max_steps": 0}}, "max_steps", id="zero-max-steps"),
        pytest.param({"source": PROGRAM, "options": {"max_steps": True}}, "'max_steps' must be an integer", id="max-steps-bool"),
        pytest.param({"source": PROGRAM, "trace": 7}, "'trace' must be a traceparent string", id="trace-int"),
        pytest.param({"source": PROGRAM, "trace": "not-a-traceparent"}, "not a valid traceparent", id="trace-junk"),
        pytest.param({"source": PROGRAM, "trace": "00-" + "0" * 32 + "-" + "1" * 16 + "-01"}, "not a valid traceparent", id="trace-zero-id"),
    ],
)
def test_bad_payloads_bounce_with_the_field_named(payload, fragment):
    with pytest.raises(JobValidationError) as excinfo:
        JobRequest.from_payload(payload)
    assert fragment in str(excinfo.value)
    assert excinfo.value.http_status == 400


def test_resilience_options_need_no_jobs():
    job = JobRequest.from_payload({"source": PROGRAM, "options": {"timeout_s": 2}})
    assert job.timeout_s == 2.0
    assert job.wants_resilience


def test_default_run_is_narrow():
    assert not JobRequest("minic", PROGRAM, retries=1).is_default_run
    assert not JobRequest("minic", PROGRAM, max_steps=10).is_default_run
    # A custom deadline alone does not disqualify caching: it bounds
    # *when* the job may run, not what it computes.
    assert JobRequest("minic", PROGRAM, deadline_s=5).is_default_run


def test_cache_key_material_distinguishes_every_identity_field():
    base = JobRequest("minic", PROGRAM, entry="main", args=[1])
    variants = [
        JobRequest("ir", PROGRAM, entry="main", args=[1]),
        JobRequest("minic", PROGRAM + " ", entry="main", args=[1]),
        JobRequest("minic", PROGRAM, entry="other", args=[1]),
        JobRequest("minic", PROGRAM, entry="main", args=[2]),
    ]
    keys = {v.cache_key_material() for v in variants}
    assert base.cache_key_material() not in keys
    assert len(keys) == 4
