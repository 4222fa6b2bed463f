"""Unit tests for pooled cross-repetition latency percentiles."""

import pytest

from repro.analysis.histstats import merged_histogram, percentile_profile
from repro.coconut.metrics import PhaseMetrics
from repro.coconut.results import PhaseResult
from repro.stream import LogHistogram


def repetition(index, latencies):
    histogram = None
    if latencies is not None:
        recorded = LogHistogram()
        for latency in latencies:
            recorded.record(latency)
        histogram = recorded.to_dict()
    return PhaseMetrics(
        phase="Set", repetition=index, expected=10, received=10, failed=0,
        t_first_send=0.0, t_last_receive=5.0, duration=5.0, tps=2.0,
        mean_fls=1.0, latency_histogram=histogram,
    )


class TestMergedHistogram:
    def test_pools_every_repetition(self):
        phase = PhaseResult(
            phase="Set",
            repetitions=[repetition(0, [0.1] * 90), repetition(1, [10.0] * 10)],
        )
        merged = merged_histogram(phase)
        assert merged.total == 100
        assert merged.min_value == 0.1 and merged.max_value == 10.0

    def test_none_without_recorded_histograms(self):
        phase = PhaseResult(phase="Set", repetitions=[repetition(0, None)])
        assert merged_histogram(phase) is None


class TestPercentileProfile:
    def test_pooled_not_averaged(self):
        # Averaging per-repetition p95s would give ~5 s; the pooled
        # sample's p95 lies in the slow repetition's 10 s bucket.
        phase = PhaseResult(
            phase="Set",
            repetitions=[repetition(0, [0.1] * 90), repetition(1, [10.0] * 10)],
        )
        profile = percentile_profile(phase, quantiles=(50.0, 95.0))
        assert profile[50.0] == pytest.approx(0.1, rel=0.03)
        assert profile[95.0] == pytest.approx(10.0, rel=0.03)

    def test_rejects_results_without_histograms(self):
        phase = PhaseResult(phase="Set", repetitions=[repetition(0, None)])
        with pytest.raises(ValueError, match="no latency histograms"):
            percentile_profile(phase)
