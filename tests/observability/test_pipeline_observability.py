"""Observed pipeline runs: span coverage, metric/report consistency, and
the diagnostics ``observability`` section."""

import repro.promotion.pipeline
from repro.bench.workloads import WORKLOADS
from repro.frontend.lower import compile_source
from repro.observability import NULL_OBSERVABILITY, Observability
from repro.profile import codegen
from repro.promotion.pipeline import PromotionPipeline

SOURCE = """
int total = 0;
int bump(int k) {
    for (int i = 0; i < 4; i++) total += k;
    return total;
}
int main() {
    int r = bump(3);
    print(r);
    return 0;
}
"""


def _observed_run(**kwargs):
    obs = Observability.recording()
    module = compile_source(SOURCE)
    result = PromotionPipeline(observability=obs, **kwargs).run(module)
    return obs, result


def test_every_phase_and_function_has_a_span():
    obs, result = _observed_run()
    names = [r.name for r in obs.tracer.records]
    for phase in (
        "phase:prepare",
        "phase:profile",
        "phase:promote",
        "phase:re-execute",
    ):
        assert phase in names
    for fn in result.diagnostics.promoted_functions:
        assert f"function:{fn}" in names
        assert f"prepare:{fn}" in names
    assert names[0] == "pipeline"
    # Stage spans nest under their function span.
    by_id = {r.id: r for r in obs.tracer.records}
    stages = [r for r in obs.tracer.records if r.name.startswith("stage:")]
    assert stages
    assert all(by_id[s.parent].name.startswith("function:") for s in stages)


def test_metrics_exactly_match_the_result_report():
    obs, result = _observed_run()
    doc = obs.metrics.as_dict()
    assert doc["pipeline.static_before.loads"]["value"] == result.static_before.loads
    assert doc["pipeline.static_after.stores"]["value"] == result.static_after.stores
    assert doc["pipeline.dynamic_after.loads"]["value"] == result.dynamic_after.loads
    totals = result.totals().as_dict()
    for field, value in totals.items():
        assert doc[f"promotion.{field}"]["value"] == value
    assert doc["pipeline.output_matches"]["value"] == 1


def test_diagnostics_observability_section_is_versioned():
    obs, result = _observed_run()
    section = result.diagnostics.as_dict()["observability"]
    assert section["version"] == 1
    assert section["profile_source"] == "interpreter"
    assert section["config"]["resilience"] is None
    assert section["spans"] == len(obs.tracer.records)
    assert "promotion.webs_promoted" in section["metrics"]


def test_disabled_run_has_no_observability_residue():
    module = compile_source(SOURCE)
    result = PromotionPipeline().run(module)
    assert result.observability is NULL_OBSERVABILITY
    assert result.diagnostics.observability is None
    assert result.diagnostics.as_dict()["observability"] is None


def test_result_carries_the_bundle_for_exporters():
    obs, result = _observed_run()
    assert result.observability is obs


def test_config_stamp_covers_the_execution_layer():
    pipeline = PromotionPipeline()
    stamp = pipeline.config_stamp()
    assert "jobs" not in stamp
    assert "use_cache" not in stamp
    assert stamp["resilience"] is None
    assert "transactional" not in stamp
    assert "compiled_interpreter" not in stamp


def test_ssa_counters_record_through_the_ambient_registry():
    obs, result = _observed_run()
    doc = obs.metrics.as_dict()
    # This workload promotes webs with compensating stores, so the
    # incremental updater must have reported at least one update.
    assert doc["ssa.incremental.updates"]["value"] >= 1


def test_interpreter_phases_count_compiled_and_reused_units(monkeypatch):
    # Phase 5 runs as source exactly the functions whose profiled steps
    # reach the break-even point, and finds some of phase 2's code.
    profiles = []

    def spy(run):
        profiles.append(codegen.profiled_steps(run))
        return profiles[-1]

    monkeypatch.setattr(repro.promotion.pipeline, "profiled_steps", spy)
    workload = WORKLOADS["perl"]
    obs = Observability.recording()
    module = compile_source(workload.source, "perl")
    result = PromotionPipeline(
        entry=workload.entry, args=list(workload.args), observability=obs
    ).run(module)
    spans = {r.name: r.attrs for r in obs.tracer.records}
    profile, rerun = spans["phase:profile"], spans["phase:re-execute"]
    assert profile["units_compiled"] >= 1
    assert profile["units_reused"] == 0
    assert rerun["units_reused"] >= 1
    (steps,) = profiles
    hot = [name for name, n in steps.items() if n >= codegen._BREAK_EVEN]
    assert rerun["units_compiled"] + rerun["units_reused"] == len(hot)
    # Trace-only: the diagnostics never see them.
    assert "units_" not in result.diagnostics.to_json()
