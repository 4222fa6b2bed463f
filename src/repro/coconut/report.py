"""Text rendering of results: the paper's tables and heat maps."""

from __future__ import annotations

import typing

from repro.coconut.results import PhaseResult, UnitResult


def format_table(
    headers: typing.Sequence[str], rows: typing.Sequence[typing.Sequence[str]]
) -> str:
    """A plain aligned text table."""
    columns = [list(column) for column in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(cell) for cell in column) for column in columns]
    def render(cells: typing.Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    lines = [render(headers), render(["-" * width for width in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def metrics_table(results: typing.Sequence[typing.Tuple[str, PhaseResult]]) -> str:
    """The paper's MTPS/MFLS table shape (e.g. Tables 7, 9, 11...)."""
    headers = ["Config", "MTPS", "SD", "SEM", "95% CI", "MFLS", "SD", "SEM", "95% CI"]
    rows = []
    for label, phase in results:
        mtps, mfls = phase.mtps, phase.mfls
        rows.append(
            [
                label,
                f"{mtps.mean:.2f}",
                f"{mtps.sd:.2f}",
                f"{mtps.sem:.2f}",
                f"±{mtps.ci95:.2f}",
                f"{mfls.mean:.2f}",
                f"{mfls.sd:.2f}",
                f"{mfls.sem:.2f}",
                f"±{mfls.ci95:.2f}",
            ]
        )
    return format_table(headers, rows)


def transactions_table(results: typing.Sequence[typing.Tuple[str, PhaseResult]]) -> str:
    """The paper's NoT table shape (e.g. Tables 8, 10, 12...)."""
    headers = ["Config", "Received NoT", "Expected NoT", "SD", "SEM", "95% CI"]
    rows = []
    for label, phase in results:
        received = phase.received
        rows.append(
            [
                label,
                f"{received.mean:.2f}",
                f"{phase.expected.mean:.2f}",
                f"{received.sd:.2f}",
                f"{received.sem:.2f}",
                f"±{received.ci95:.2f}",
            ]
        )
    return format_table(headers, rows)


def heatmap(
    cell_results: typing.Mapping[typing.Tuple[str, str], PhaseResult],
    row_labels: typing.Sequence[str],
    column_labels: typing.Sequence[str],
) -> str:
    """The Figure 3/4 heat-map grid: benchmarks x systems.

    ``cell_results`` maps (row, column) to the phase result whose best
    MTPS the cell shows; missing cells render as failed (0.00).
    """
    headers = ["Benchmark"] + list(column_labels)
    rows = []
    for row_label in row_labels:
        cells = [row_label]
        for column_label in column_labels:
            phase = cell_results.get((row_label, column_label))
            if phase is None or phase.received.mean == 0:
                cells.append("MTPS=0.00 FAIL")
                continue
            cells.append(
                f"MTPS={phase.mtps.mean:.2f} "
                f"MFLS={phase.mfls.mean:.2f}s "
                f"D={phase.duration.mean:.2f}s"
            )
        rows.append(cells)
    return format_table(headers, rows)


def latency_table(results: typing.Sequence[typing.Tuple[str, PhaseResult]]) -> str:
    """Finalization-latency profile: mean plus nearest-rank tail."""
    headers = ["Config", "MFLS", "p50", "p95", "p99", "p99/p50"]
    rows = []
    for label, phase in results:
        p50, p99 = phase.p50.mean, phase.p99.mean
        amplification = p99 / p50 if p50 > 0 else 0.0
        rows.append(
            [
                label,
                f"{phase.mfls.mean:.2f}",
                f"{p50:.2f}",
                f"{phase.p95.mean:.2f}",
                f"{p99:.2f}",
                f"{amplification:.2f}",
            ]
        )
    return format_table(headers, rows)


def unit_summary(result: UnitResult) -> str:
    """A readable multi-phase summary of one unit."""
    lines = [f"Unit {result.label} (RL={result.aggregate_rate}, scale={result.scale})"]
    for phase_name, phase in result.phases.items():
        line = (
            f"  {phase_name:>14}: MTPS={phase.mtps.format()}  MFLS={phase.mfls.format()}s  "
            f"p99={phase.p99.mean:.2f}s  "
            f"D={phase.duration.mean:.2f}s  "
            f"NoT={phase.received.mean:.0f}/{phase.expected.mean:.0f}"
        )
        if phase.invalidated.mean > 0:
            line += f"  invalid={phase.invalidated.mean:.0f}"
        lines.append(line)
    return "\n".join(lines)
