"""Unit tests for the log-bucketed latency histogram."""

import json
import math

import pytest

from repro.stream import BASE, RESOLUTION, LogHistogram
from repro.trace.metrics import Histogram


class TestBucketing:
    def test_bucket_is_pure_function_of_value(self):
        # Deterministic, not half-open-exact: a value sitting on a bucket
        # boundary may land on either side of it (floor of an inexact
        # log), but always the *same* side — that is what merging needs.
        h = LogHistogram()
        for value in (0.001, 0.5, 1.0, 2.5, 100.0, 999.0):
            index = h.bucket_index(value)
            low, high = h.bucket_bounds(index)
            assert math.isclose(low, value) or math.isclose(high, value) or (
                low <= value < high
            )
            assert h.bucket_index(value) == index

    @pytest.mark.parametrize("histogram", [LogHistogram, Histogram])
    def test_record_lands_in_bucket_index(self, histogram):
        # ``record`` computes the bucket inline; it must agree with
        # ``bucket_index`` wherever the float log is least forgiving.
        h = histogram()
        powers = [h.base ** (k / h.resolution) for k in range(-900, 900, 7)]
        subnormals = [5e-324, 1e-320, 1e-310, math.nextafter(2.2250738585072014e-308, 0.0)]
        edges = [
            math.nextafter(bound, direction)
            for index in (-1000, -91, -1, 0, 1, 89, 90, 540)
            for bound in h.bucket_bounds(index)
            for direction in (0.0, math.inf)
        ]
        for value in powers + subnormals + edges:
            one = histogram()
            one.record(value)
            assert one.counts == {h.bucket_index(value): 1}, value

    def test_relative_width_matches_scheme(self):
        h = LogHistogram()
        assert h.relative_width == pytest.approx(BASE ** (1.0 / RESOLUTION))
        # ~2.6% with the defaults: the documented percentile error bound.
        assert 1.02 < h.relative_width < 1.03

    def test_representative_inside_bucket(self):
        h = LogHistogram()
        for index in (-200, -1, 0, 1, 90, 180):
            low, high = h.bucket_bounds(index)
            assert low < h.bucket_value(index) < high

    def test_underflow_keeps_mass(self):
        h = LogHistogram()
        h.record(0.0)
        h.record(-1.0)
        h.record(1.0)
        assert h.total == 3
        assert h.underflow == 2
        assert sum(h.counts.values()) == 1

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(base=1.0)
        with pytest.raises(ValueError):
            LogHistogram(resolution=0)
        with pytest.raises(ValueError):
            LogHistogram().record(1.0, count=0)


class TestPercentiles:
    def test_empty_is_zero(self):
        assert LogHistogram().percentile(50) == 0.0

    def test_out_of_range_rejected(self):
        h = LogHistogram()
        h.record(1.0)
        for q in (0.0, -1.0, 100.1):
            with pytest.raises(ValueError):
                h.percentile(q)

    def test_single_value_is_exact(self):
        # The representative is clamped into [min, max], so a
        # single-valued distribution reports that value exactly.
        h = LogHistogram()
        h.record(0.731, count=10)
        for q in (1, 50, 99, 100):
            assert h.percentile(q) == 0.731

    def test_known_distribution(self):
        h = LogHistogram()
        values = [0.1 * i for i in range(1, 101)]  # 0.1 .. 10.0
        for v in values:
            h.record(v)
        width = h.relative_width
        for q, exact in ((50, 5.0), (95, 9.5), (99, 9.9)):
            approx = h.percentile(q)
            assert exact / width <= approx <= exact * width

    def test_percentiles_tuple(self):
        h = LogHistogram()
        h.record(1.0)
        assert h.percentiles((50, 99)) == (h.percentile(50), h.percentile(99))


class TestMerge:
    def test_merge_adds_counts_and_extremes(self):
        a, b = LogHistogram(), LogHistogram()
        a.record(0.5)
        b.record(2.0, count=3)
        a.merge(b)
        assert a.total == 4
        assert a.min_value == 0.5
        assert a.max_value == 2.0

    def test_incompatible_schemes_rejected(self):
        a = LogHistogram()
        b = LogHistogram(base=2.0)
        assert not a.compatible(b)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merged_of_empty_iterable(self):
        assert LogHistogram.merged([]).total == 0


class TestSerialization:
    def test_round_trip(self):
        h = LogHistogram()
        for v in (0.01, 0.5, 0.5, 3.0, 200.0):
            h.record(v)
        h.record(0.0)
        assert LogHistogram.from_dict(h.to_dict()) == h

    def test_canonical_bytes(self):
        # Equal histograms built in different orders serialize to equal
        # JSON bytes (ascending bucket keys).
        a, b = LogHistogram(), LogHistogram()
        for v in (0.5, 3.0, 0.01):
            a.record(v)
        for v in (0.01, 3.0, 0.5):
            b.record(v)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
