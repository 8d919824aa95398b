from repro.bench.metrics import (
    PROMOTERS,
    BenchmarkRow,
    measure_workload,
)
from repro.bench.tables import (
    format_comparison,
    format_table1,
    format_table2,
    format_table3,
)
from repro.bench.workloads import WORKLOADS


def test_measure_workload_row_fields():
    row = measure_workload(WORKLOADS["compress"])
    assert row.name == "compress"
    assert row.promoter == "sastry-ju"
    assert row.output_matches
    assert row.static_total_before == row.static_loads_before + row.static_stores_before
    assert row.dynamic_total_after <= row.dynamic_total_before


def test_pct_sign_convention():
    row = BenchmarkRow(
        name="x",
        promoter="p",
        static_loads_before=100,
        static_loads_after=114,
        static_stores_before=100,
        static_stores_after=90,
        dynamic_loads_before=1000,
        dynamic_loads_after=750,
        dynamic_stores_before=0,
        dynamic_stores_after=0,
        output_matches=True,
    )
    assert row.pct("static_loads") == -14.0  # count increased
    assert row.pct("static_stores") == 10.0
    assert row.pct("dynamic_loads") == 25.0
    assert row.pct("dynamic_stores") == 0.0  # zero-before guard


def test_all_promoters_registered():
    assert set(PROMOTERS) == {"sastry-ju", "lucooper", "mahlke"}
    row = measure_workload(WORKLOADS["compress"], "lucooper")
    assert row.promoter == "lucooper"
    assert row.output_matches


def test_pressure_rows_structure():
    rows = measure_workload(WORKLOADS["gcc"]).pressure
    assert [r.routine for r in rows] == list(WORKLOADS["gcc"].pressure_routines)
    for row in rows:
        assert row.colors_before >= 1
        assert row.colors_after >= 1


def test_table_formatters_smoke():
    row = measure_workload(WORKLOADS["compress"])
    assert "compress" in format_table1([row])
    assert "compress" in format_table2([row])
    assert "compress" in format_table3(row.pressure)
    assert "compress" in format_comparison(
        [row],
        [measure_workload(WORKLOADS["compress"], "lucooper")],
        [measure_workload(WORKLOADS["compress"], "mahlke")],
    )


def test_report_cli_runs(capsys):
    from repro.bench.report import main

    assert main(["--table", "3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out


#: Table 3 as ``repro-report --table 3`` prints it: (bench, routine,
#: colors before, colors after).
TABLE3 = [
    ("go", "scan_board", 4, 7),
    ("go", "main", 7, 7),
    ("li", "eval_node", 4, 4),
    ("ijpeg", "quantize_block", 6, 8),
    ("perl", "run", 5, 4),
    ("m88ksim", "simulate", 5, 5),
    ("gcc", "fold_pass", 5, 6),
    ("compress", "main", 6, 6),
    ("vortex", "main", 5, 5),
]


def test_table3_rows_are_pinned(capsys):
    from repro.bench.report import main

    assert main(["--table", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [
        (bench, routine, int(before), int(after))
        for bench, routine, before, after, _ in map(str.split, lines[2:-1])
    ]
    assert rows == TABLE3


def test_paper_reference_tables_cover_all_workloads():
    from repro.bench.tables import PAPER_TABLE1, PAPER_TABLE2_LOADS
    from repro.bench.workloads import ORDER

    assert set(PAPER_TABLE1) == set(ORDER)
    assert set(PAPER_TABLE2_LOADS) == set(ORDER)
    for loads, stores, total in PAPER_TABLE1.values():
        assert -20.0 <= loads <= 20.0
        assert -20.0 <= stores <= 20.0
        assert -20.0 <= total <= 20.0


def test_report_json_output(capsys):
    import json

    from repro.bench.report import main
    from repro.bench.workloads import ORDER

    assert main(["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["workloads"]) == set(ORDER)
    go = doc["workloads"]["go"]
    assert go["behaviour_preserved"] is True
    assert go["dynamic"]["loads_after"] < go["dynamic"]["loads_before"]
    assert any(p["workload"] == "ijpeg" for p in doc["pressure"])
