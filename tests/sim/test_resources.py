"""Unit tests for counted resources."""

import pytest

from repro.sim import Resource, Simulator
from repro.sim.events import SimulationError


@pytest.fixture()
def sim():
    return Simulator(seed=1)


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_acquire_within_capacity_is_immediate(self, sim):
        pool = Resource(sim, capacity=2)
        first = pool.acquire()
        second = pool.acquire()
        assert first.triggered and second.triggered
        assert pool.in_use == 2
        assert pool.available == 0

    def test_acquire_beyond_capacity_waits_for_release(self, sim):
        pool = Resource(sim, capacity=1)
        times = []

        def worker(name, hold):
            yield pool.acquire()
            times.append((name, "start", sim.now))
            yield sim.timeout(hold)
            pool.release()
            times.append((name, "end", sim.now))

        sim.spawn(worker("a", 3.0))
        sim.spawn(worker("b", 2.0))
        sim.run()
        assert times == [
            ("a", "start", 0.0),
            ("a", "end", 3.0),
            ("b", "start", 3.0),
            ("b", "end", 5.0),
        ]

    def test_release_idle_resource_raises(self, sim):
        pool = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_fifo_admission(self, sim):
        pool = Resource(sim, capacity=1)
        admitted = []

        def worker(name):
            yield pool.acquire()
            admitted.append(name)
            yield sim.timeout(1.0)
            pool.release()

        for name in ["w1", "w2", "w3"]:
            sim.spawn(worker(name))
        sim.run()
        assert admitted == ["w1", "w2", "w3"]

    def test_queued_counter(self, sim):
        pool = Resource(sim, capacity=1)
        pool.acquire()
        pool.acquire()
        pool.acquire()
        assert pool.queued == 2

class TestReleaseSlotAccounting:
    def test_handover_keeps_in_use_at_capacity(self, sim):
        # Releasing with waiters hands the slot over rather than freeing
        # it: in_use must stay pinned at capacity until the queue drains.
        pool = Resource(sim, capacity=2)
        pool.acquire()
        pool.acquire()
        pool.acquire()  # waiter 1
        pool.acquire()  # waiter 2
        assert (pool.in_use, pool.available, pool.queued) == (2, 0, 2)
        pool.release()
        assert (pool.in_use, pool.available, pool.queued) == (2, 0, 1)
        pool.release()
        assert (pool.in_use, pool.available, pool.queued) == (2, 0, 0)
        pool.release()
        assert (pool.in_use, pool.available, pool.queued) == (1, 1, 0)
        pool.release()
        assert (pool.in_use, pool.available, pool.queued) == (0, 2, 0)

    def test_over_release_after_drain_raises(self, sim):
        pool = Resource(sim, capacity=1)
        pool.acquire()
        pool.acquire()  # waiter
        pool.release()  # handover
        pool.release()  # frees the slot
        with pytest.raises(SimulationError):
            pool.release()

    def test_waiter_admitted_by_release_holds_a_granted_event(self, sim):
        pool = Resource(sim, capacity=1)
        first = pool.acquire()
        second = pool.acquire()
        assert first.triggered
        assert not second.triggered
        pool.release()
        assert second.triggered
        assert pool.in_use == 1
