"""Unit tests for seeded RNG streams."""

from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        registry = RngRegistry(7)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_are_independent(self):
        registry = RngRegistry(7)
        a_first = registry.stream("a").random()
        # Drawing from b must not perturb a's future draws.
        registry.stream("b").random()
        a_second = registry.stream("a").random()

        fresh = RngRegistry(7)
        assert fresh.stream("a").random() == a_first
        assert fresh.stream("a").random() == a_second

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()

    def test_different_names_differ(self):
        registry = RngRegistry(5)
        assert registry.stream("x").random() != registry.stream("y").random()
