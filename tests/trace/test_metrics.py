"""Unit tests for trace metrics: counters, gauges, log-scale histograms."""

import pytest

from repro.trace import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments_accumulate(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Counter().inc(-1)


class TestGauge:
    def test_tracks_extremes_and_updates(self):
        gauge = Gauge()
        for value in (3.0, -1.0, 7.0):
            gauge.set(value)
        assert gauge.value == 7.0
        assert gauge.max_value == 7.0
        assert gauge.min_value == -1.0
        assert gauge.updates == 3

    def test_untouched_gauge_snapshots_zeros(self):
        assert Gauge().snapshot() == {"value": 0.0, "max": 0.0, "min": 0.0, "updates": 0}


class TestHistogramBucketing:
    def test_bucket_boundaries_are_inclusive_lower(self):
        # The streaming scheme: bucket i covers [10**(i/90), 10**((i+1)/90)).
        hist = Histogram()
        assert hist.bucket_index(1.0) == 0
        assert hist.bucket_index(1.02) == 0
        assert hist.bucket_index(1.03) == 1
        assert hist.bucket_index(0.99) == -1
        assert hist.bucket_bounds(0) == (1.0, pytest.approx(1.0259, abs=1e-4))
        for value in (3e-4, 0.7, 5.0, 112.0):
            low, high = hist.bucket_bounds(hist.bucket_index(value))
            assert low <= value < high

    def test_nonpositive_values_underflow(self):
        hist = Histogram()
        hist.record(0.0)
        hist.record(-1.0)
        assert hist.underflow == 2
        assert hist.counts == {}
        assert hist.snapshot()["buckets"] == []

    def test_default_base_resolves_sub_millisecond_latencies(self):
        hist = Histogram()
        hist.record(0.0004)  # a typical datacenter link latency
        ((bound, count),) = hist.snapshot()["buckets"]
        assert count == 1
        # The bucket's upper bound is within one 2.6 % bucket of 400 us.
        assert 0.0004 < bound <= 0.0004 * hist.relative_width

    def test_mean_min_max(self):
        hist = Histogram()
        for value in (1.0, 2.0, 9.0):
            hist.record(value)
        assert hist.mean == pytest.approx(4.0)
        assert hist.min_value == 1.0
        assert hist.max_value == 9.0
        assert hist.total == 3

    def test_percentile_is_exact_to_one_bucket(self):
        hist = Histogram()
        for __ in range(99):
            hist.record(1.7)
        hist.record(100.0)
        width = hist.relative_width
        assert 1.7 / width <= hist.percentile(50) <= 1.7 * width
        assert 100.0 / width <= hist.percentile(100) <= 100.0
        assert Histogram().percentile(50) == 0.0
        with pytest.raises(ValueError):
            hist.percentile(150)

    def test_snapshot_percentiles_lie_within_min_max(self):
        registry = MetricsRegistry()
        lat = registry.histogram("lat")
        for value in (0.0015, 0.0015, 0.0016):
            lat.record(value)
        snapshot = registry.snapshot()["histograms"]["lat"]
        for field in ("p50", "p99"):
            assert snapshot["min"] <= snapshot[field] <= snapshot["max"]
        assert snapshot["p99"] == 0.0016

    def test_invalid_construction(self):
        # One bucket scheme for every trace histogram: no knobs.
        with pytest.raises(TypeError):
            Histogram(base=0.0)
        with pytest.raises(TypeError):
            MetricsRegistry().histogram("lat", factor=2.0)


class TestMetricsRegistry:
    def test_get_or_create_is_stable_per_key(self):
        registry = MetricsRegistry()
        a = registry.counter("net.sent", system="fabric")
        b = registry.counter("net.sent", system="fabric")
        other = registry.counter("net.sent", system="quorum")
        assert a is b
        assert a is not other
        assert len(registry) == 2

    def test_axes_separate_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x", node="n0").inc(2)
        registry.gauge("depth", system="sim").set(4)
        registry.histogram("lat", node="n1").record(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["x"]["value"] == 1
        assert snapshot["counters"]["n0/x"]["value"] == 2
        assert snapshot["gauges"]["sim/depth"]["max"] == 4
        assert snapshot["histograms"]["n1/lat"]["count"] == 1

    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", system="s", node="n").inc()
        registry.histogram("h").record(1.0)
        json.dumps(registry.snapshot())
