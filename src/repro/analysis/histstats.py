"""Latency-histogram analysis of unit results.

Every repetition carries a serialized
:class:`~repro.stream.LogHistogram` next to their scalar metrics; this
module turns those back into distribution views the scalar summaries
cannot express — a cross-repetition percentile profile (the merge is
exact, not an average of averages).
"""

from __future__ import annotations

import typing

from repro.coconut.results import PhaseResult
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
