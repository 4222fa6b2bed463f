"""Time-series views of client records.

Useful for diagnosing the dynamics behind a benchmark's aggregate
numbers: when a system stalls (Quorum's empty-block latch), how latency
grows with queue depth (Corda OS), when confirmations stop (Fabric at
scale).
"""

from __future__ import annotations

import typing

from repro.coconut.client import PayloadRecord
from repro.stream.histogram import LogHistogram


def throughput_over_time(
    records: typing.Iterable[PayloadRecord], bucket_seconds: float = 10.0
) -> typing.List[typing.Tuple[float, float]]:
    """Confirmed transactions per second, bucketed by confirmation time.

    Returns (bucket_start, tps) pairs, covering the full span including
    empty buckets — a stall shows up as zeros.
    """
    if bucket_seconds <= 0:
        raise ValueError(f"bucket_seconds must be positive, got {bucket_seconds}")
    confirmed = sorted(r.end_time for r in records if r.received)
    if not confirmed:
        return []
    first_bucket = int(confirmed[0] // bucket_seconds)
    last_bucket = int(confirmed[-1] // bucket_seconds)
    counts = {bucket: 0 for bucket in range(first_bucket, last_bucket + 1)}
    for end_time in confirmed:
        counts[int(end_time // bucket_seconds)] += 1
    return [
        (bucket * bucket_seconds, counts[bucket] / bucket_seconds)
        for bucket in range(first_bucket, last_bucket + 1)
    ]


def latency_percentiles(
    records: typing.Iterable[PayloadRecord],
    percentiles: typing.Sequence[float] = (50.0, 90.0, 99.0),
) -> typing.Dict[float, float]:
    """Finalization-latency percentiles of the confirmed records.

    Nearest rank through :meth:`LogHistogram.percentile`, the algorithm
    behind every run's p50/p95/p99, so values are exact to one bucket
    (2.6 %). No confirmations give zeros.
    """
    histogram = LogHistogram()
    for record in records:
        if record.received:
            histogram.record(record.latency)
    return {percentile: histogram.percentile(percentile) for percentile in percentiles}


def loss_timeline(
    records: typing.Iterable[PayloadRecord], bucket_seconds: float = 10.0
) -> typing.List[typing.Tuple[float, float]]:
    """Fraction of payloads sent per bucket that never confirmed."""
    if bucket_seconds <= 0:
        raise ValueError(f"bucket_seconds must be positive, got {bucket_seconds}")
    buckets: typing.Dict[int, typing.List[int]] = {}
    for record in records:
        bucket = int(record.start_time // bucket_seconds)
        sent, lost = buckets.get(bucket, [0, 0])
        sent += 1
        if not record.received:
            lost += 1
        buckets[bucket] = [sent, lost]
    return [
        (bucket * bucket_seconds, lost / sent)
        for bucket, (sent, lost) in sorted(buckets.items())
    ]
