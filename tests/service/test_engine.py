"""The promotion engine: byte-identity, the result cache, deadlines.

The invariant under test everywhere: a job that completes through the
engine yields the same IR text, printed output, and return value as a
fresh serial pipeline run of the same payload.
"""

import asyncio
import gc
import time

import pytest

from repro.frontend.limits import InputLimits
from repro.frontend.lower import compile_source
from repro.ir.function import Function
from repro.ir.printer import print_module
from repro.observability import FlightRecorder, flightrecorder
from repro.profile.interp import Interpreter
from repro.promotion.pipeline import PromotionPipeline
from repro.service.engine import PromotionEngine
from repro.service.errors import DeadlineExceededError, JobInputError
from repro.service.jobs import JobRequest

PROGRAM = """
int total = 0;
int bump(int k) { total += k; return total; }
int main() {
    for (int i = 0; i < 40; i++) bump(i);
    print(total);
    return total % 251;
}
"""

# Enough interpreter steps to outlive a millisecond-scale deadline, but
# bounded so the abandoned thread finishes promptly in the background.
BUSY_PROGRAM = """
int sink = 0;
int main() {
    for (int i = 0; i < 800; i++) {
        for (int j = 0; j < 300; j++) sink += j;
    }
    return sink % 17;
}
"""

POISON_PROGRAM = """
int acc = 0;
int step(int k) { acc += k; return acc; }
int main() {
    for (int i = 0; i < 25; i++) step(i);
    print(acc);
    return 5;
}
"""


def reference(source, entry="main", args=()):
    """A fresh serial pipeline run: the byte-identity oracle."""
    module = compile_source(source)
    PromotionPipeline(entry=entry, args=list(args)).run(module)
    run = Interpreter(module).run(entry, list(args))
    return (
        print_module(module),
        [" ".join(str(v) for v in values) for values in run.output],
        run.return_value & 0xFF,
    )


@pytest.fixture
def engine():
    eng = PromotionEngine(workers=2)
    yield eng
    eng.shutdown(wait=True)


def test_completed_job_is_byte_identical_to_a_fresh_serial_run(engine):
    ir, output, rv = reference(PROGRAM)
    result = engine.execute(JobRequest("minic", PROGRAM), 30.0, "job-1")
    assert result.ir == ir
    assert result.output == output
    assert result.return_value == rv
    assert result.output_matches
    assert not result.degraded
    assert not result.cached


def test_result_cache_serves_identical_bytes(engine):
    first = engine.execute(JobRequest("minic", PROGRAM), 30.0, "job-1")
    second = engine.execute(JobRequest("minic", PROGRAM), 30.0, "job-2")
    assert second.cached
    assert engine.result_cache_hits == 1
    assert (second.ir, second.output, second.return_value) == (
        first.ir,
        first.output,
        first.return_value,
    )
    assert second.job_id == "job-2"  # identity is per-request, not cached


def _live_functions():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Function))


def test_served_jobs_leave_no_ir_alive():
    """The engine keeps a job's printed result, never its IR: after a
    warm-up, five distinct programs leave the live Function count as it
    was."""
    eng = PromotionEngine(workers=1)
    try:
        eng.execute(JobRequest("minic", PROGRAM), 30.0, "warm-up")
        before = _live_functions()
        for k in range(5):
            source = PROGRAM.replace("i < 40", f"i < {41 + k}")
            result = eng.execute(JobRequest("minic", source), 30.0, f"job-{k}")
            assert not result.cached
        del result
        assert _live_functions() == before
    finally:
        eng.shutdown(wait=True)


def test_non_default_jobs_bypass_the_result_cache(engine):
    job = JobRequest("minic", PROGRAM, max_steps=1_000_000)
    engine.execute(job, 30.0, "job-1")
    engine.execute(job, 30.0, "job-2")
    assert engine.result_cache_hits == 0


def test_ir_kind_round_trips_through_the_parser(engine):
    ir_text = print_module(compile_source(PROGRAM))
    _, output, rv = reference(PROGRAM)
    result = engine.execute(JobRequest("ir", ir_text), 30.0, "job-1")
    assert result.output == output
    assert result.return_value == rv
    assert result.output_matches


def test_compile_error_is_a_client_fault(engine):
    with pytest.raises(JobInputError) as excinfo:
        engine.execute(JobRequest("minic", "int main( {"), 30.0, "job-1")
    assert excinfo.value.http_status == 422
    assert "compile error" in str(excinfo.value)
    assert engine.failed_total == 1


def test_non_decimal_digit_is_a_client_fault(engine):
    # "²" passes str.isdigit() but not int(); it must reach the client
    # as a compile error, not as an engine crash.
    source = "int main() { return 2²; }"
    with pytest.raises(JobInputError) as excinfo:
        engine.execute(JobRequest("minic", source), 30.0, "job-1")
    assert excinfo.value.http_status == 422
    assert "unexpected character '²'" in str(excinfo.value)


def test_frontend_limit_trip_names_the_limit():
    engine = PromotionEngine(workers=1, limits=InputLimits(max_source_bytes=16))
    try:
        with pytest.raises(JobInputError) as excinfo:
            engine.execute(JobRequest("minic", PROGRAM), 30.0, "job-1")
        assert excinfo.value.limit == "source size"
    finally:
        engine.shutdown(wait=True)


#: Reads far past ``a``: the interpreter traps ("expected integer").
TRAPPING_PROGRAM = (
    "int main() { int *p; int a; p = &a; a = 3; return *(p + 100000); }"
)


def test_runtime_error_in_submitted_program_is_a_client_fault(engine, tmp_path):
    previous = flightrecorder.install(
        FlightRecorder("engine-test", artifacts_dir=str(tmp_path))
    )
    try:
        # One program trips the step limit, the other traps.
        for source, max_steps in ((PROGRAM, 10), (TRAPPING_PROGRAM, None)):
            with pytest.raises(JobInputError) as excinfo:
                engine.execute(
                    JobRequest("minic", source, max_steps=max_steps), 30.0, "job-1"
                )
            assert "execution failed" in str(excinfo.value)
    finally:
        flightrecorder.install(previous)
    assert not list(tmp_path.glob("*engine-crash-*"))


def test_loop_over_ten_million_steps_returns_a_result(engine):
    # Just over 10M steps after promotion: the answer is phase 5's run,
    # under the pipeline's step budget, not a third run under a smaller one.
    trips = 1_700_000
    source = (
        "int total = 0;\n"
        "int main() {\n"
        f"    for (int i = 0; i < {trips}; i++) total += i;\n"
        "    print(total);\n"
        "    return total % 7;\n"
        "}\n"
    )
    result = engine.execute(JobRequest("minic", source), 60.0, "job-1")
    total = sum(range(trips))
    assert result.output == [str(total)]
    assert result.return_value == total % 7
    assert result.output_matches


def test_deadline_abandons_the_thread_and_recovers(engine):
    job = JobRequest("minic", BUSY_PROGRAM, max_steps=5_000_000)

    async def body():
        with pytest.raises(DeadlineExceededError) as excinfo:
            await engine.run_job(job, 0.05, "job-1")
        assert excinfo.value.http_status == 504
        assert engine.abandoned == 1
        # The abandoned thread runs to completion in the background and
        # the engine's accounting recovers.
        deadline = time.monotonic() + 30.0
        while engine.abandoned and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        assert engine.abandoned == 0
        assert await engine.probe()

    asyncio.run(body())


def test_poisoned_parallel_job_degrades_but_preserves_behaviour(engine):
    _, output, rv = reference(POISON_PROGRAM)
    job = JobRequest(
        "minic",
        POISON_PROGRAM,
        retries=1,
        chaos="crash=1.0,only=step,seed=1",
    )
    result = engine.execute(job, 60.0, "job-1")
    assert result.degraded
    assert "step" in result.quarantined
    assert result.output == output
    assert result.return_value == rv
    assert result.output_matches
    assert engine.degraded_total == 1
