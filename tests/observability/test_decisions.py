"""The promotion decision journal: per-access verdicts with rationale,
and the reconciliation invariant that ties it to ``StaticCounts``.

The contract under test: every ``Load``/``Store`` present when
``promote_function`` enters a function (i.e. after mem2reg and CFG
normalization — exactly what ``PipelineResult.static_before`` counts) is
a candidate, and ``promoted + partial + blocked == candidates`` on every
workload, in process and supervised alike.  Compensating accesses promotion
itself inserted are journaled but excluded from that reconciliation.
"""

import json

import pytest

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.observability.decisions import (
    DECISIONS_SCHEMA_VERSION,
    NULL_DECISIONS,
    DecisionJournal,
    NullDecisionJournal,
    ambient,
)
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ResilienceOptions

SOURCE = """
int shared = 0;
int bump(int k) {
    for (int i = 0; i < 6; i++) shared += k;
    return shared;
}
int main() {
    print(bump(3));
    return 0;
}
"""


def run_with_journal(source, processes=1, entry="main", args=()):
    """``processes=2`` promotes in a supervised worker beside the caller."""
    module = compile_source(source)
    journal = DecisionJournal()
    result = PromotionPipeline(
        decisions=journal,
        resilience=ResilienceOptions() if processes == 2 else None,
        entry=entry,
        args=list(args),
    ).run(module)
    return journal, result


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("name", ORDER)
def test_reconciliation_on_the_paper_workloads(name, processes):
    workload = WORKLOADS[name]
    journal, result = run_with_journal(
        workload.source, processes, entry=workload.entry, args=workload.args
    )
    totals = journal.summary()["totals"]
    static = result.static_before
    assert totals["candidates"] == static.loads + static.stores, (
        f"{name}: journal candidates != static before-counts"
    )
    assert (
        totals["promoted"] + totals["partial"] + totals["blocked"]
        == totals["candidates"]
    ), f"{name}: verdicts do not partition the candidates"


def test_serial_and_parallel_journals_agree():
    serial, _ = run_with_journal(WORKLOADS["compress"].source, processes=1)
    parallel, _ = run_with_journal(WORKLOADS["compress"].source, processes=2)
    assert serial.summary() == parallel.summary()
    assert serial.export() == parallel.export()


def test_every_access_line_carries_a_verdict_and_rationale():
    journal, _ = run_with_journal(WORKLOADS["go"].source)
    seen_verdicts = set()
    for doc in journal.export():
        assert doc["status"] == "committed"
        for access in doc["accesses"]:
            assert access["origin"] in ("candidate", "compensating")
            assert access["reason"]
            if access["origin"] == "candidate":
                assert access["access"] in ("load", "store")
                assert access["verdict"] in ("promoted", "partial", "blocked")
                seen_verdicts.add(access["verdict"])
            else:
                # Compensating accesses include the dummy loads that
                # summarize a web for its parent interval; when an
                # enclosing interval re-triages one, its verdict is
                # overwritten in place.
                assert access["access"] in ("load", "store", "dummy")
                assert access["verdict"] in (
                    "inserted",
                    "promoted",
                    "partial",
                    "blocked",
                )
    # A real workload exercises both promoted and blocked paths.
    assert {"promoted", "blocked"} <= seen_verdicts


def test_blocked_reasons_name_their_cause():
    journal, _ = run_with_journal(WORKLOADS["go"].source)
    reasons = {
        access["reason"]
        for doc in journal.export()
        for access in doc["accesses"]
        if access["verdict"] == "blocked"
    }
    known = {
        "alias-kill",
        "unprofitable",
        "pressure-limit",
        "not-in-promotable-web",
    }
    assert reasons and reasons <= known


def test_rolled_back_functions_are_stamped_and_excluded_from_totals():
    journal, _ = run_with_journal(SOURCE)
    committed = journal.summary()["totals"]["candidates"]
    journal.mark("bump", "rolled_back")
    summary = journal.summary()
    assert summary["statuses"]["rolled_back"] == 1
    assert summary["totals"]["candidates"] < committed or committed == 0
    # Re-marking an unknown function is a no-op, not an error.
    journal.mark("no-such-function", "quarantined")


def test_jsonl_lines_start_with_metadata_then_one_line_per_access():
    journal, _ = run_with_journal(SOURCE)
    lines = [json.loads(line) for line in journal.jsonl_lines({"tool": "test"})]
    head = lines[0]
    assert head["type"] == "metadata"
    assert head["version"] == DECISIONS_SCHEMA_VERSION
    assert head["tool"] == "test"
    assert head["summary"] == journal.summary()
    body = lines[1:]
    assert body and all(line["type"] == "decision" for line in body)
    journaled = sum(len(doc["accesses"]) for doc in journal.export())
    assert len(body) == journaled
    assert all("function" in line and "verdict" in line for line in body)


def test_write_produces_a_parseable_jsonl_file(tmp_path):
    journal, _ = run_with_journal(SOURCE)
    path = tmp_path / "decisions.jsonl"
    journal.write(str(path), {"tool": "test"})
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["type"] == "metadata"
    assert len(lines) >= 1


def test_absorb_adopts_worker_documents_in_call_order():
    journal = DecisionJournal()
    journal.absorb({"function": "a", "status": "committed", "counts": {
        "candidates": 2, "promoted": 1, "partial": 0, "blocked": 1,
        "compensating": 0}, "accesses": []})
    journal.absorb(None)  # a worker with nothing to report
    journal.absorb({"function": "b", "status": "committed", "counts": {
        "candidates": 1, "promoted": 1, "partial": 0, "blocked": 0,
        "compensating": 0}, "accesses": []})
    assert [doc["function"] for doc in journal.export()] == ["a", "b"]
    assert journal.summary()["totals"]["candidates"] == 3


def test_disabled_journal_is_a_true_null_object(tmp_path):
    assert ambient() is NULL_DECISIONS
    null = NullDecisionJournal()
    assert null.function(object()).enabled is False
    null.mark("f", "rolled_back")
    assert null.export() == []
    assert null.summary() == {}
    assert list(null.jsonl_lines()) == []
    path = tmp_path / "never.jsonl"
    null.write(str(path))
    assert not path.exists()


def test_pipeline_without_journal_keeps_diagnostics_clean():
    module = compile_source(SOURCE)
    result = PromotionPipeline().run(module)
    assert result.decisions is None
    assert result.diagnostics.decisions is None


def test_pipeline_summary_lands_in_diagnostics():
    journal, result = run_with_journal(SOURCE)
    assert result.decisions is journal
    assert result.diagnostics.decisions == journal.summary()
