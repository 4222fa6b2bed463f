"""Unit tests for the text report renderers."""

from repro.coconut.metrics import PhaseMetrics
from repro.coconut.report import format_table, markdown_section
from repro.coconut.results import PhaseResult


def phase_result(tps=10.0, fls=1.0, received=100, expected=120, reps=3):
    return PhaseResult(
        phase="Set",
        repetitions=[
            PhaseMetrics(
                phase="Set", repetition=i, expected=expected, received=received,
                failed=expected - received, t_first_send=0.0,
                t_last_receive=10.0, duration=10.0, tps=tps + i, mean_fls=fls,
            )
            for i in range(reps)
        ],
    )


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["A", "Blong"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) >= 1
        assert lines[0].startswith("A")

    def test_empty_rows(self):
        table = format_table(["Col1", "Col2"], [])
        assert "Col1" in table
        assert len(table.splitlines()) == 2

    def test_wide_cells_stretch_columns(self):
        table = format_table(["H"], [["a-very-wide-cell"]])
        header, divider, row = table.splitlines()
        assert len(divider) >= len("a-very-wide-cell")


class TestMarkdownSection:
    def test_heading_table_and_note(self):
        text = markdown_section("T", ["A", "B"], [["1", "2"], ["3", "4"]], note="n.")
        assert text == "\n### T\n\n| A | B |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n\nn.\n"

    def test_no_note(self):
        assert markdown_section("T", ["A"], [["1"]]) == "\n### T\n\n| A |\n|---|\n| 1 |\n"


class TestMetricTables:
    def test_latency_table_tail_columns(self):
        from repro.coconut.report import latency_table

        result = phase_result()
        for rep in result.repetitions:
            rep.p50_fls, rep.p95_fls, rep.p99_fls = 1.0, 3.0, 5.0
        table = latency_table([("RL=20", result)])
        assert "p99/p50" in table
        assert "5.00" in table  # p99 and the 5x amplification

    def test_unit_summary_shows_invalidations_only_when_present(self):
        from repro.coconut.report import unit_summary
        from repro.coconut.results import UnitResult

        clean = phase_result()
        dirty = phase_result()
        for rep in dirty.repetitions:
            rep.invalidated = 7
        unit = UnitResult(label="u", system="fabric", iel="KeyValue",
                          aggregate_rate=80, params={}, scale=0.05,
                          phases={"Set": dirty, "Get": clean})
        text = unit_summary(unit)
        assert "invalid=7" in text
        assert text.count("invalid=") == 1
