"""Text rendering of results: plain and markdown tables, unit summaries."""

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


def markdown_section(
    title: str,
    headers: typing.Sequence[str],
    rows: typing.Sequence[typing.Sequence[str]],
    note: typing.Optional[str] = None,
) -> str:
    """An experiment's section of EXPERIMENTS.md: a ``###`` heading, a
    markdown table and an optional closing note. ``coconut experiment``
    prints the same text."""
    lines = [f"\n### {title}\n", "| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    if note is not None:
        lines += ["", note]
    return "\n".join(lines) + "\n"


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
