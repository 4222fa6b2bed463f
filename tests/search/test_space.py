"""Tests for search-space domains and grids."""

import pytest

from repro.search.space import Domain, SearchSpace, rate_space


class TestDomain:
    def test_grid_points(self):
        domain = Domain(name="rate_limit", low=25, high=100, step=25)
        assert domain.count == 4
        assert domain.grid() == (25, 50, 75, 100)
        assert domain.value_at(0) == 25
        assert domain.value_at(3) == 100
        assert isinstance(domain.value_at(1), int)

    def test_float_domain(self):
        domain = Domain(name="block_interval", low=0.5, high=2.0, step=0.5,
                        integer=False)
        assert domain.grid() == (0.5, 1.0, 1.5, 2.0)
        assert isinstance(domain.value_at(1), float)

    def test_index_of_rounds_and_clamps(self):
        domain = Domain(name="rate_limit", low=10, high=40, step=10)
        assert domain.index_of(10) == 0
        assert domain.index_of(24) == 1
        assert domain.index_of(26) == 2
        assert domain.index_of(999) == 3
        assert domain.index_of(-5) == 0

    def test_value_at_bounds(self):
        domain = Domain(name="rate_limit", low=10, high=40, step=10)
        with pytest.raises(IndexError):
            domain.value_at(4)
        with pytest.raises(IndexError):
            domain.value_at(-1)

    def test_validation(self):
        with pytest.raises(ValueError, match="step must be > 0"):
            Domain(name="x", low=1, high=10, step=0)
        with pytest.raises(ValueError, match="low must be <= high"):
            Domain(name="x", low=10, high=1, step=1)
        with pytest.raises(ValueError, match="multiple of step"):
            Domain(name="x", low=1, high=10, step=4)
        with pytest.raises(ValueError, match="integer domain"):
            Domain(name="x", low=1, high=2, step=0.5)

    def test_describe(self):
        assert Domain(name="rate_limit", low=5, high=80, step=5).describe() \
            == "rate_limit in [5..80] step 5"
        assert "0.5" in Domain(name="bi", low=0.5, high=1.5, step=0.5,
                               integer=False).describe()

    def test_dict_roundtrip(self):
        domain = Domain(name="rate_limit", low=5, high=80, step=5)
        assert Domain.from_dict(domain.to_dict()) == domain


class TestSearchSpace:
    def test_rate_space_helper(self):
        space = rate_space(25, 400, 25)
        assert space.rate.count == 16
        assert space.combos() == ({},)

    def test_rate_domain_must_be_positive_integer(self):
        with pytest.raises(ValueError, match="integer with low >= 1"):
            SearchSpace(rate=Domain(name="rate_limit", low=0, high=10, step=1))
        with pytest.raises(ValueError, match="integer with low >= 1"):
            SearchSpace(rate=Domain(name="rate_limit", low=1.0, high=2.0,
                                    step=0.5, integer=False))

    def test_param_combos_cross(self):
        space = SearchSpace(
            rate=Domain(name="rate_limit", low=10, high=20, step=10),
            params=(
                Domain(name="block_interval", low=1, high=2, step=1),
                Domain(name="max_block_size", low=100, high=200, step=100),
            ),
        )
        combos = space.combos()
        assert len(combos) == 4
        assert {"block_interval": 1, "max_block_size": 100} in combos
        assert {"block_interval": 2, "max_block_size": 200} in combos

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate param"):
            SearchSpace(
                rate=Domain(name="rate_limit", low=1, high=2, step=1),
                params=(
                    Domain(name="bi", low=1, high=2, step=1),
                    Domain(name="bi", low=1, high=2, step=1),
                ),
            )

    def test_describe_and_dict_roundtrip(self):
        space = SearchSpace(
            rate=Domain(name="rate_limit", low=5, high=80, step=5),
            params=(Domain(name="block_interval", low=1, high=2, step=1),),
        )
        assert "rate_limit in [5..80] step 5" in space.describe()
        assert "block_interval" in space.describe()
        assert SearchSpace.from_dict(space.to_dict()) == space
