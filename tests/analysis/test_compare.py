"""Unit tests for shape-comparison helpers."""

import pytest

from repro.analysis.compare import (
    ShapeCheck,
    ordering_preserved,
    render_checks,
    within_factor,
)


class TestWithinFactor:
    def test_inside_band(self):
        assert within_factor(10.0, 12.0, factor=1.5)
        assert within_factor(12.0, 10.0, factor=1.5)

    def test_outside_band(self):
        assert not within_factor(10.0, 40.0, factor=2.0)
        assert not within_factor(40.0, 10.0, factor=2.0)

    def test_zero_reference(self):
        assert within_factor(0.0, 0.0, factor=2.0)
        assert not within_factor(5.0, 0.0, factor=2.0)
        assert not within_factor(0.0, 5.0, factor=2.0)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            within_factor(1.0, 1.0, factor=0.5)


class TestOrderingPreserved:
    def test_matching_order(self):
        pairs = [(100.0, 90.0), (50.0, 60.0), (10.0, 8.0)]
        assert ordering_preserved(pairs)

    def test_violated_order(self):
        pairs = [(100.0, 10.0), (50.0, 60.0)]
        assert not ordering_preserved(pairs)

    def test_tolerance_ignores_near_ties(self):
        # References 100 vs 98 are within 15% of each other: measured
        # order between them is free.
        pairs = [(100.0, 5.0), (98.0, 6.0), (10.0, 1.0)]
        assert ordering_preserved(pairs, tolerance=0.15)
        assert not ordering_preserved(pairs, tolerance=0.0)

    def test_empty_and_single(self):
        assert ordering_preserved([])
        assert ordering_preserved([(1.0, 99.0)])


class TestShapeCheck:
    def test_factor_constructor(self):
        check = ShapeCheck.factor("t", measured=10.0, reference=12.0, factor=1.5)
        assert check.passed
        assert "band" in check.detail

    def test_factor_detail_prints_the_exact_band(self):
        # A one-decimal rendering would print the 1.35 band as x1.4.
        for factor, band in ((1.35, "x1.35"), (2.0, "x2.0"), (2, "x2.0"), (1.6, "x1.6")):
            check = ShapeCheck.factor("t", measured=1.0, reference=1.0, factor=factor)
            assert check.detail == f"measured=1.00 paper=1.00 band={band}"

    def test_ordering_constructor(self):
        check = ShapeCheck.ordering("t", [(10.0, 5.0), (1.0, 0.5)])
        assert check.passed
        assert check.detail == "2 values compared"

    def test_failed_ordering_names_the_first_inverted_pair(self):
        pairs = [(1599.89, 1574.3), (1461.05, 610.2), (773.60, 702.9), (7.18, 3.0)]
        check = ShapeCheck.ordering("t", pairs, tolerance=0.15)
        assert not check.passed
        assert check.detail == "paper 1461.05 > 773.60 but measured 610.2 < 702.9"

    def test_failed_ordering_puts_the_paper_larger_value_first(self):
        # Listed smallest-first: the detail still reads high > low.
        check = ShapeCheck.ordering("t", [(773.60, 702.9), (1461.05, 610.2)])
        assert check.detail == "paper 1461.05 > 773.60 but measured 610.2 < 702.9"

    def test_failed_ordering_reports_a_measured_tie(self):
        check = ShapeCheck.ordering("t", [(10.0, 4.0), (5.0, 4.0)])
        assert not check.passed
        assert check.detail == "paper 10.00 > 5.00 but measured 4.0 = 4.0"

    def test_near_tie_within_tolerance_is_not_reported(self):
        # 100 vs 98 may order freely; the first real inversion is 98 vs 10.
        pairs = [(100.0, 5.0), (98.0, 0.5), (10.0, 1.0)]
        check = ShapeCheck.ordering("t", pairs, tolerance=0.15)
        assert check.detail == "paper 98.00 > 10.00 but measured 0.5 < 1.0"

    def test_failure_mode_constructor(self):
        assert ShapeCheck.failure_mode("t", 0.0, expect_failure=True).passed
        assert not ShapeCheck.failure_mode("t", 10.0, expect_failure=True).passed
        assert ShapeCheck.failure_mode("t", 10.0, expect_failure=False).passed

    def test_render(self):
        checks = [
            ShapeCheck("good", True, "fine"),
            ShapeCheck("bad", False, "broken"),
        ]
        text = render_checks(checks)
        assert "[PASS] good" in text
        assert "[FAIL] bad" in text
        assert "1/2" in text
