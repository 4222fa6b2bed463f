"""Unit tests for the Section 4.5 metric formulas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coconut.metrics import (
    MetricSummary,
    PhaseMetrics,
    aggregate,
    confidence_interval,
    t_critical,
)
from repro.stream import LogHistogram
from repro.stream.accumulator import PhaseAccumulator
from repro.stream.spill import PayloadRecord


def accumulate(records, phase="Set"):
    """One client's accumulator, fed its records as a client would."""
    accumulator = PhaseAccumulator(phase)
    for record in records:
        accumulator.on_send(record.start_time)
        if record.status != "pending":
            accumulator.on_resolve(record.start_time, record.end_time, record.status,
                                   record.invalid)
    return accumulator


def phase_metrics(record_lists, repetition=0, phase="Set"):
    """PhaseMetrics over several clients' records."""
    merged = PhaseAccumulator.merged([accumulate(rs, phase) for rs in record_lists], phase)
    return PhaseMetrics.from_accumulator(merged, repetition)


def percentile(values, q):
    """Nearest-rank percentile through the one histogram every run uses."""
    histogram = LogHistogram()
    for value in values:
        histogram.record(value)
    return histogram.percentile(q)


def record(start, end=None, status="pending"):
    return PayloadRecord(payload_id=f"p{start}-{end}", phase="Set",
                         start_time=start, end_time=end, status=status)


class TestTCritical:
    def test_known_table_values(self):
        # Two-sided 95% values from standard Student-t tables. df=2 is
        # the one the paper's r=3 statistics depend on.
        for df, expected in ((1, 12.7062), (2, 4.3027), (5, 2.5706),
                             (10, 2.2281), (30, 2.0423)):
            assert t_critical(df) == pytest.approx(expected, abs=1e-4)

    def test_large_df_interpolates_toward_normal(self):
        # True values: t(0.975, 60) = 2.0003, t(0.975, 120) = 1.9799.
        assert t_critical(60) == pytest.approx(2.0003, abs=2e-3)
        assert t_critical(120) == pytest.approx(1.9799, abs=2e-3)
        assert t_critical(10**6) == pytest.approx(1.9600, abs=1e-3)

    def test_monotone_decreasing_in_df(self):
        values = [t_critical(df) for df in range(1, 200)]
        assert values == sorted(values, reverse=True)

    def test_degenerate_df(self):
        assert t_critical(0) == 0.0
        assert t_critical(-3) == 0.0

    def test_unsupported_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            t_critical(5, two_sided_alpha=0.01)

    def test_matches_scipy_when_available(self):
        stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 3, 7, 15, 30, 45, 90):
            exact = float(stats.t.ppf(0.975, df))
            assert t_critical(df) == pytest.approx(exact, abs=2e-3)


class TestAggregate:
    def test_single_value(self):
        summary = aggregate([5.0])
        assert summary == MetricSummary(5.0, 0.0, 0.0, 0.0)

    def test_empty(self):
        assert aggregate([]).mean == 0.0

    def test_three_repetitions_match_paper_statistics(self):
        # r=3: CI = t(0.975, df=2) * SEM with t ~ 4.303 (visible in the
        # paper's tables, e.g. SEM 4.58 -> CI 19.72 in Table 8).
        summary = aggregate([10.0, 12.0, 14.0])
        assert summary.mean == pytest.approx(12.0)
        assert summary.sd == pytest.approx(2.0)
        assert summary.sem == pytest.approx(2.0 / 3 ** 0.5)
        assert summary.ci95 / summary.sem == pytest.approx(4.3027, rel=1e-3)

    def test_confidence_interval_bounds(self):
        low, high = confidence_interval([10.0, 12.0, 14.0])
        assert low < 12.0 < high

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=10))
    def test_sd_nonnegative_and_mean_within_range(self, values):
        summary = aggregate(values)
        assert summary.sd >= 0
        assert min(values) - 1e-6 <= summary.mean <= max(values) + 1e-6


class TestPhaseMetrics:
    def test_formulas_on_known_records(self):
        # Client A sends at t=0 and t=1; confirmations at 2 and 4.
        # Client B sends at t=0.5; confirmation at 3.
        a = [record(0.0, 2.0, "received"), record(1.0, 4.0, "received")]
        b = [record(0.5, 3.0, "received")]
        metrics = phase_metrics([a, b])
        assert metrics.expected == 3
        assert metrics.received == 3
        assert metrics.t_first_send == 0.0  # t_fstx across clients
        assert metrics.t_last_receive == 4.0  # t_lrtx across clients
        assert metrics.duration == pytest.approx(4.0)  # Formula (3)
        assert metrics.tps == pytest.approx(3 / 4.0)  # Formula (2)
        assert metrics.mean_fls == pytest.approx((2.0 + 3.0 + 2.5) / 3)  # Formula (1)

    def test_unconfirmed_payloads_counted_as_lost(self):
        client = [
            record(0.0, 2.0, "received"),
            record(1.0),  # never confirmed
            record(2.0, 5.0, "failed"),  # rejected
        ]
        metrics = phase_metrics([client])
        assert metrics.expected == 3
        assert metrics.received == 1
        assert metrics.not_received == 2
        assert metrics.failed == 1

    def test_total_failure_reports_zeros(self):
        # Table 15's 0.00 rows: nothing received -> MTPS 0, duration 0.
        metrics = phase_metrics([[record(0.0), record(1.0)]])
        assert metrics.received == 0
        assert metrics.tps == 0.0
        assert metrics.duration == 0.0
        assert metrics.mean_fls == 0.0

    def test_round_trip_serialization(self):
        metrics = phase_metrics([[record(0.0, 2.0, "received")]], repetition=1)
        assert metrics.latency_histogram is not None
        assert PhaseMetrics.from_dict(metrics.to_dict()) == metrics

    def test_latency_percentiles(self):
        # 100 confirmations with latencies 1..100 s: nearest-rank
        # percentiles land on the 50th/95th/99th values, to one bucket.
        client = [record(float(i), float(i) + i + 1, "received") for i in range(100)]
        metrics = phase_metrics([client])
        width = LogHistogram().relative_width
        for value, exact in ((metrics.p50_fls, 50.0), (metrics.p95_fls, 95.0),
                             (metrics.p99_fls, 99.0)):
            assert exact / width <= value <= exact * width

    def test_invalidated_count(self):
        records = [record(0.0, 2.0, "received"), record(1.0, 3.0, "received")]
        records[1].invalid = True
        metrics = phase_metrics([records])
        assert metrics.invalidated == 1


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        rel = LogHistogram().relative_width - 1
        assert percentile(values, 50) == pytest.approx(2.0, rel=rel)
        assert percentile(values, 75) == pytest.approx(3.0, rel=rel)
        assert percentile(values, 100) == pytest.approx(4.0, rel=rel)
        assert percentile([7.0], 99) == 7.0

    def test_empty_and_bounds(self):
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], 0)

    def test_empty_sample_is_zero_for_every_quantile(self):
        for q in (0.1, 1, 25, 50, 90, 99, 100):
            assert percentile([], q) == 0.0

    def test_single_element_dominates_every_quantile(self):
        for q in (0.1, 1, 50, 99, 100):
            assert percentile([3.5], q) == 3.5

    def test_bounds_checked_even_for_empty_shortcut(self):
        # The empty shortcut returns before validation; pinned so a
        # refactor that reorders the guards keeps the documented shape.
        assert percentile([], -1) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], 101)
