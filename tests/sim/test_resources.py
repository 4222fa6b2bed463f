"""Unit tests for counted resources: :meth:`Resource.request` and
:meth:`Resource.release`, their FIFO admission and slot accounting."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


@pytest.fixture()
def sim():
    return Simulator(seed=1)


def _worker(sim: Simulator, pool: Resource, log: list, name: str, hold: float) -> None:
    """Take a slot, hold it for ``hold`` seconds, give it back."""

    def start() -> None:
        log.append((name, "start", sim.now))
        sim.resume_after(hold, end)

    def end() -> None:
        pool.release()
        log.append((name, "end", sim.now))

    pool.request(start)


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_acquire_within_capacity_is_immediate(self, sim):
        # A free slot is taken at request time; the grant runs one hop later.
        pool = Resource(sim, capacity=2)
        granted = []
        pool.request(granted.append, "first")
        pool.request(granted.append, "second")
        assert (pool.in_use, pool.available, pool.queued) == (2, 0, 0)
        assert granted == []
        sim.run()
        assert granted == ["first", "second"]
        assert pool.in_use == 2

    def test_acquire_beyond_capacity_waits_for_release(self, sim):
        pool = Resource(sim, capacity=1)
        times = []
        sim.schedule(0.0, _worker, sim, pool, times, "a", 3.0)
        sim.schedule(0.0, _worker, sim, pool, times, "b", 2.0)
        sim.run()
        assert times == [
            ("a", "start", 0.0),
            ("a", "end", 3.0),
            ("b", "start", 3.0),
            ("b", "end", 5.0),
        ]
        assert (pool.in_use, pool.queued) == (0, 0)

    def test_release_idle_resource_raises(self, sim):
        pool = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_fifo_admission(self, sim):
        pool = Resource(sim, capacity=1)
        times = []
        for name in ["w1", "w2", "w3"]:
            _worker(sim, pool, times, name, 1.0)
        sim.run()
        starts = [(name, now) for name, what, now in times if what == "start"]
        assert starts == [("w1", 0.0), ("w2", 1.0), ("w3", 2.0)]

    def test_queued_counter(self, sim):
        pool = Resource(sim, capacity=1)
        for __ in range(3):
            pool.request(lambda: None)
        assert pool.queued == 2


class TestReleaseSlotAccounting:
    def test_handover_keeps_in_use_at_capacity(self, sim):
        # Releasing with waiters hands the slot over rather than freeing
        # it: in_use must stay pinned at capacity until the queue drains.
        pool = Resource(sim, capacity=2)
        granted = []
        for name in ["h1", "h2", "w1", "w2"]:
            pool.request(granted.append, name)
        assert (pool.in_use, pool.available, pool.queued) == (2, 0, 2)
        pool.release()
        assert (pool.in_use, pool.available, pool.queued) == (2, 0, 1)
        pool.release()
        assert (pool.in_use, pool.available, pool.queued) == (2, 0, 0)
        pool.release()
        assert (pool.in_use, pool.available, pool.queued) == (1, 1, 0)
        pool.release()
        assert (pool.in_use, pool.available, pool.queued) == (0, 2, 0)
        sim.run()
        assert granted == ["h1", "h2", "w1", "w2"]

    def test_over_release_after_drain_raises(self, sim):
        pool = Resource(sim, capacity=1)
        pool.request(lambda: None)
        pool.request(lambda: None)  # waiter
        pool.release()  # handover
        pool.release()  # frees the slot
        with pytest.raises(SimulationError):
            pool.release()

    def test_waiter_admitted_by_release_holds_a_granted_slot(self, sim):
        # The waiter's grant is one hop scheduled by the release that
        # hands the slot over, not a hop of its own request.
        pool = Resource(sim, capacity=1)
        granted = []
        pool.request(granted.append, "first")
        pool.request(granted.append, "second")
        sim.run()
        assert granted == ["first"]
        assert (pool.in_use, pool.queued) == (1, 1)
        pool.release()
        assert (pool.in_use, pool.queued, sim.pending_events()) == (1, 0, 1)
        sim.run()
        assert granted == ["first", "second"]
        assert pool.in_use == 1
