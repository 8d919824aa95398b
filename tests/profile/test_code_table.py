"""The process-wide code table of the interpreter's source tier.

Every tiered run looks each unit's text up in :data:`codegen.CODE`
before compiling it, so a text is compiled once per process: a second
pipeline over the same program compiles nothing, and its outputs are
the first one's byte for byte.  The table holds at most a bounded amount
of text, dropping the least recently used, and threads share it safely.
"""

from __future__ import annotations

import contextlib
import io
import threading

from repro.bench import report
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.observability import Observability
from repro.profile import codegen
from repro.promotion.pipeline import PromotionPipeline

from tests.promotion.test_golden_outputs import digest


def _promote(name):
    """The outputs of one pipeline over proxy ``name``, and the unit
    counts of its two interpreter phases."""
    workload = WORKLOADS[name]
    obs = Observability.recording()
    module = compile_source(workload.source, name)
    result = PromotionPipeline(
        entry=workload.entry, args=list(workload.args), observability=obs
    ).run(module)
    spans = {r.name: r.attrs for r in obs.tracer.records}
    units = [
        (spans[phase]["units_compiled"], spans[phase]["units_reused"])
        for phase in ("phase:profile", "phase:re-execute")
    ]
    outputs = (
        print_module(module),
        [
            result.static_before.loads,
            result.static_before.stores,
            result.static_after.loads,
            result.static_after.stores,
            result.dynamic_before.loads,
            result.dynamic_before.stores,
            result.dynamic_after.loads,
            result.dynamic_after.stores,
        ],
        {name: stats.as_dict() for name, stats in sorted(result.stats.items())},
        result.output_matches,
    )
    return outputs, units


def test_a_second_pipeline_over_the_same_program_compiles_nothing(cold_code_table):
    for name in ORDER:
        first, first_units = _promote(name)
        second, second_units = _promote(name)
        assert second == first, name
        (compiled, _), _ = first_units
        assert compiled >= 1, name
        assert [units[0] for units in second_units] == [0, 0], name
        # The same units run, all of them found in the table.
        assert [sum(units) for units in second_units] == [
            sum(units) for units in first_units
        ], name


def test_report_compiles_each_unit_text_once(cold_code_table, monkeypatch):
    texts = []

    def counting(text, filename, mode):
        texts.append((filename, text))
        return compile(text, filename, mode)

    monkeypatch.setattr(codegen, "compile", counting, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert report.main(["--table", "all", "--compare"]) == 0
    assert len(texts) == len(set(texts)) == len(cold_code_table.keys()) == 86


def test_the_table_never_exceeds_its_bound():
    table = codegen.CodeTable(max_chars=2_000)
    texts = {
        f"u{k}": f"def F():\n    return {k}\n" + "#" * (k * 37 % 900) + "\n"
        for k in range(60)
    }
    for _ in range(3):
        for name, text in texts.items():
            code, _ = table.code(name, text)
            namespace = {}
            exec(code, namespace)
            assert namespace["F"]() == int(name[1:])
            held = table.keys()
            assert table.chars == sum(len(t) for _, t in held) <= table.max_chars
            assert held[-1] == (name, text)  # most recently used last
    # A hit moves its entry to the recent end, so a miss that needs the
    # room of all the others drops them and keeps it.
    oldest = table.keys()[0]
    assert table.code(*oldest)[1] is False
    filler = "v = 0\n" + "#" * (table.max_chars - len(oldest[1]) - 10) + "\n"
    table.code("filler", filler)
    assert table.keys() == [oldest, ("filler", filler)]
    # A text larger than the whole bound is compiled but not kept.
    code, compiled = table.code("huge", "y = 2\n" + "#" * 5_000 + "\n")
    assert compiled and table.keys() == [] and table.chars == 0
    assert table.code("huge", "y = 2\n" + "#" * 5_000 + "\n")[1] is True


def test_threads_promoting_at_once_agree_with_a_serial_run(cold_code_table):
    # Both threads start on an empty table and compile the same texts
    # into it at once.
    programs = {
        name: (workload.source, workload.entry, tuple(workload.args))
        for name, workload in WORKLOADS.items()
    }
    serial = {name: digest(name, *program) for name, program in programs.items()}
    cold_code_table.clear()
    start = threading.Barrier(2)
    found = [{}, {}]
    errors = []

    def promote_all(index):
        try:
            start.wait()
            for name in ORDER:
                found[index][name] = digest(name, *programs[name])
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=promote_all, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert found == [serial, serial]
