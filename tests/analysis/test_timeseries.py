"""Unit tests for time-series analysis of client records."""

import pytest

from repro.analysis.timeseries import latency_percentiles, loss_timeline, throughput_over_time
from repro.coconut.client import PayloadRecord
from repro.stream import LogHistogram


def record(start, end=None, status="pending"):
    return PayloadRecord(payload_id=f"p{start}", phase="Set",
                         start_time=start, end_time=end, status=status)


class TestThroughputOverTime:
    def test_buckets_and_gaps(self):
        records = [record(0.0, 1.0, "received"), record(0.0, 2.0, "received"),
                   record(0.0, 25.0, "received")]
        series = throughput_over_time(records, bucket_seconds=10.0)
        assert series[0] == (0.0, 0.2)   # two confirmations in [0, 10)
        assert series[1] == (10.0, 0.0)  # the stall bucket
        assert series[2] == (20.0, 0.1)

    def test_empty(self):
        assert throughput_over_time([]) == []
        assert throughput_over_time([record(0.0)]) == []

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            throughput_over_time([], bucket_seconds=0)


class TestLatencyPercentiles:
    def test_known_values(self):
        records = [record(0.0, float(i + 1), "received") for i in range(100)]
        pct = latency_percentiles(records)
        width = LogHistogram().relative_width
        for percentile in (50.0, 90.0, 99.0):
            # Nearest rank, to one histogram bucket.
            assert percentile / width <= pct[percentile] <= percentile * width

    def test_no_received(self):
        assert latency_percentiles([record(0.0)]) == {50.0: 0.0, 90.0: 0.0, 99.0: 0.0}

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            latency_percentiles([record(0.0, 1.0, "received")], percentiles=(150.0,))


class TestLossTimeline:
    def test_per_bucket_fractions(self):
        records = [
            record(1.0, 2.0, "received"),
            record(2.0),  # lost, same bucket
            record(11.0),  # lost, next bucket
        ]
        timeline = loss_timeline(records, bucket_seconds=10.0)
        assert timeline == [(0.0, 0.5), (10.0, 1.0)]

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            loss_timeline([], bucket_seconds=-1)
