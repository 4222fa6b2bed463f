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

    def test_ordering_constructor(self):
        check = ShapeCheck.ordering("t", [(10.0, 5.0), (1.0, 0.5)])
        assert check.passed

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
