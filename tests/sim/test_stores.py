"""Unit tests for FIFO stores.

:class:`~repro.sim.stores.Store` hands items to one consumer callback.
The event-returning store the generator loops used lives on as the
reference driver's :class:`ReferenceStore` (:mod:`tests.sim.reference`);
``TestUnboundedStore`` pins its semantics.
"""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.stores import Store
from tests.sim.reference import ReferenceSimulator
from tests.sim.reference import ReferenceStore as EventStore


@pytest.fixture()
def sim():
    return ReferenceSimulator(seed=1)


class _RecordingSimulator(Simulator):
    """Logs every ``schedule`` call as ``(now, delay)``."""

    def __init__(self) -> None:
        super().__init__(seed=1)
        self.calls = []

    def schedule(self, delay, callback, *args):
        self.calls.append((self.now, delay))
        super().schedule(delay, callback, *args)


class TestCallbackStore:
    def test_get_of_a_queued_item_is_one_hop(self):
        sim = _RecordingSimulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        got = []
        store.get(got.append)
        assert got == [] and len(store) == 1
        sim.run()
        assert got == ["a"]
        assert sim.calls == [(0.0, 0.0)]

    def test_put_hands_the_item_to_a_waiting_consumer_in_one_hop(self):
        sim = _RecordingSimulator()
        store = Store(sim)
        got = []
        store.get(lambda item: got.append((sim.now, item)))
        sim.schedule(2.0, store.put, "late")
        sim.run()
        assert got == [(2.0, "late")]
        assert sim.calls == [(0.0, 2.0), (2.0, 0.0)]
        assert len(store) == 0

    def test_consumer_loop_takes_items_in_order(self):
        sim = Simulator(seed=1)
        store = Store(sim)
        got = []

        def consume(item):
            got.append(item)
            store.get(consume)

        store.get(consume)
        for item in ("a", "b", "c"):
            store.put(item)
        sim.run()
        assert got == ["a", "b", "c"]

    def test_second_waiting_consumer_is_refused(self):
        store = Store(Simulator(seed=1), name="commits")
        store.get(print)
        with pytest.raises(SimulationError, match="commits"):
            store.get(print)


class TestUnboundedStore:
    def test_put_then_get_fifo(self, sim):
        store = EventStore(sim)
        got = []

        def producer():
            for item in ["a", "b", "c"]:
                yield store.put(item)

        def consumer():
            for __ in range(3):
                item = yield store.get()
                got.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert got == ["a", "b", "c"]

    def test_get_blocks_until_put(self, sim):
        store = EventStore(sim)
        arrival_times = []

        def consumer():
            item = yield store.get()
            arrival_times.append((sim.now, item))

        def producer():
            yield sim.timeout(5.0)
            yield store.put("late-item")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert arrival_times == [(5.0, "late-item")]

    def test_waiting_getters_served_in_order(self, sim):
        store = EventStore(sim)
        got = []

        def consumer(name):
            item = yield store.get()
            got.append((name, item))

        sim.spawn(consumer("first"))
        sim.spawn(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            yield store.put(1)
            yield store.put(2)

        sim.spawn(producer())
        sim.run()
        assert got == [("first", 1), ("second", 2)]
