"""Trace determinism: supervised runs replay the in-process span tree,
and chaos runs replay identical event sequences from the same seed."""

from repro.frontend.lower import compile_source
from repro.observability import Observability
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ChaosConfig, ResilienceOptions

SOURCE = """
int a = 0;
int b = 0;
int left(int k) {
    for (int i = 0; i < 4; i++) a += k;
    return a;
}
int right(int k) {
    for (int i = 0; i < 3; i++) b += k;
    return b;
}
int main() {
    print(left(2) + right(3));
    return 0;
}
"""

#: Metrics that legitimately differ between in-process and supervised
#: runs: the supervisor's attempt counters describe the execution layer
#: itself.
EXECUTION_LAYER_PREFIXES = ("resilience.",)


def _span_tree(tracer, skip=()):
    """(name, children) shape of the trace — no ids, times, or lanes;
    records whose names start with ``skip`` are left out."""
    by_parent = {}
    for record in tracer.records:
        if skip and record.name.startswith(skip):
            continue
        by_parent.setdefault(record.parent, []).append(record)

    def walk(record):
        return (record.name, [walk(c) for c in by_parent.get(record.id, [])])

    return [walk(r) for r in by_parent.get(None, [])]


def _comparable_metrics(metrics):
    return {
        name: doc
        for name, doc in metrics.as_dict().items()
        if not name.startswith(EXECUTION_LAYER_PREFIXES)
    }


def _run(resilience=None):
    obs = Observability.recording()
    module = compile_source(SOURCE)
    result = PromotionPipeline(resilience=resilience, observability=obs).run(module)
    if resilience is not None:
        assert result.diagnostics.fallback_reason is None, "worker fell back"
    return obs, result


def test_parallel_trace_replays_the_serial_span_tree():
    obs_serial, _ = _run()
    obs_parallel, _ = _run(ResilienceOptions())
    # The supervisor adds one synthetic ``attempt:`` record per attempt.
    assert _span_tree(obs_parallel.tracer, skip="attempt:") == _span_tree(
        obs_serial.tracer
    )


def test_parallel_metrics_match_serial_modulo_execution_layer():
    obs_serial, _ = _run()
    obs_parallel, _ = _run(ResilienceOptions())
    assert _comparable_metrics(obs_parallel.metrics) == _comparable_metrics(
        obs_serial.metrics
    )


def test_worker_lanes_are_preserved_in_the_merged_trace():
    obs, _ = _run(ResilienceOptions())
    parent_pid = obs.tracer.records[0].pid
    worker_pids = {
        r.pid
        for r in obs.tracer.records
        if r.name.startswith(("function:", "stage:"))
    }
    assert worker_pids and parent_pid not in worker_pids


def test_chaos_replays_identical_event_sequences_from_the_same_seed():
    def chaos_run():
        resilience = ResilienceOptions(
            retries=2,
            seed=77,
            chaos=ChaosConfig.parse("transient=0.5,seed=77"),
        )
        obs, result = _run(resilience)
        events = [
            (r.name, r.attrs.get("attempt"), r.attrs.get("outcome"))
            for r in obs.tracer.records
            if r.name.startswith("attempt:")
        ]
        resilience_metrics = {
            k: v
            for k, v in obs.metrics.as_dict().items()
            if k.startswith("resilience.")
        }
        return events, resilience_metrics, _span_tree(obs.tracer)

    first = chaos_run()
    second = chaos_run()
    assert first == second
    events = first[0]
    assert events, "chaos at p=0.5 should have produced attempt events"
    assert any(outcome == "transient" for _, _, outcome in events)
