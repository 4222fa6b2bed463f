"""Latency-histogram analysis of unit results.

Every repetition carries a serialized
:class:`~repro.stream.LogHistogram` next to their scalar metrics; this
module turns those back into distribution views the scalar summaries
cannot express — a cross-repetition percentile profile (the merge is
exact, not an average of averages) and an ASCII density plot of the
latency shape.
"""

from __future__ import annotations

import typing

from repro.coconut.results import PhaseResult, UnitResult
from repro.stream.histogram import LogHistogram


def merged_histogram(phase_result: PhaseResult) -> typing.Optional[LogHistogram]:
    """All repetitions' latencies as one histogram, or None if the result
    predates recorded histograms.

    Merging is exact (bucket counts add), so percentiles read off the
    merged histogram describe the pooled sample — unlike the scalar
    ``p50``/``p95``/``p99`` summaries, which average per-repetition
    percentiles.
    """
    serialized = phase_result.latency_histograms()
    if not serialized:
        return None
    merged = LogHistogram.from_dict(serialized[0])
    for data in serialized[1:]:
        merged.merge(LogHistogram.from_dict(data))
    return merged


def percentile_profile(
    phase_result: PhaseResult,
    quantiles: typing.Sequence[float] = (50.0, 90.0, 95.0, 99.0, 99.9),
) -> typing.Dict[float, float]:
    """Pooled percentiles across repetitions."""
    histogram = merged_histogram(phase_result)
    if histogram is None:
        raise ValueError(
            "phase result carries no latency histograms (written before "
            "runs recorded them? re-run the unit)"
        )
    return {q: histogram.percentile(q) for q in quantiles}


def render_histogram(
    histogram: LogHistogram, width: int = 40, max_rows: int = 20
) -> str:
    """An ASCII density plot of a latency histogram.

    Adjacent buckets are coalesced when there are more populated
    buckets than ``max_rows``, so the plot stays one screen tall no
    matter how wide the latency range is.
    """
    if histogram.total == 0:
        return "(empty histogram)"
    buckets = sorted(histogram.counts.items())
    group = max(1, (len(buckets) + max_rows - 1) // max_rows)
    rows: typing.List[typing.Tuple[float, float, int]] = []
    for start in range(0, len(buckets), group):
        chunk = buckets[start : start + group]
        low = histogram.bucket_bounds(chunk[0][0])[0]
        high = histogram.bucket_bounds(chunk[-1][0])[1]
        rows.append((low, high, sum(count for _, count in chunk)))
    peak = max(count for _, _, count in rows)
    lines = []
    for low, high, count in rows:
        bar = "#" * max(1, round(width * count / peak))
        lines.append(f"{low:>10.4f}-{high:<10.4f} {count:>8d} {bar}")
    if histogram.underflow:
        lines.append(f"{'<= 0':>21} {histogram.underflow:>8d}")
    return "\n".join(lines)


def unit_latency_report(result: UnitResult) -> str:
    """Per-phase pooled percentile lines for one unit."""
    lines = [f"Latency profile {result.label}"]
    for phase_name, phase_result in result.phases.items():
        histogram = merged_histogram(phase_result)
        if histogram is None:
            lines.append(f"  {phase_name}: (no histogram recorded)")
            continue
        profile = percentile_profile(phase_result)
        rendered = "  ".join(
            f"p{q:g}={value:.4f}s" for q, value in sorted(profile.items())
        )
        lines.append(f"  {phase_name}: n={histogram.total}  {rendered}")
    return "\n".join(lines)
