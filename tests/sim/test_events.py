"""Unit tests for the reference driver's event primitives.

The hop-exactness tests compare callback code against generator code
driven by :mod:`tests.sim.reference`; these pin that reference's own
semantics.
"""

import gc

import pytest

from repro.sim import SimulationError
from tests.sim.reference import AllOf, AnyOf, ReferenceResource, ReferenceSimulator, ReferenceStore


@pytest.fixture()
def sim():
    return ReferenceSimulator(seed=1)


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.ok

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_with_none_value_is_triggered(self, sim):
        event = sim.event()
        event.succeed(None)
        assert event.triggered
        assert event.value is None

    def test_value_of_pending_event_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            __ = event.value

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("late"))

    def test_fail_carries_exception(self, sim):
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.exception is error
        with pytest.raises(RuntimeError):
            __ = event.value

    def test_fail_requires_exception_instance(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callbacks_run_after_trigger(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("hello")
        assert seen == []  # deferred to the next kernel step
        sim.run()
        assert seen == ["hello"]

    def test_callback_added_after_trigger_still_runs(self, sim):
        event = sim.event()
        event.succeed(7)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]


class TestTimeout:
    def test_fires_at_deadline(self, sim):
        timeout = sim.timeout(5.0, value="done")
        fired_at = []
        timeout.add_callback(lambda e: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [5.0]
        assert timeout.value == "done"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.triggered
        assert sim.now == 0.0


class TestConditions:
    def test_anyof_fires_on_first(self, sim):
        fast = sim.timeout(1.0, "fast")
        slow = sim.timeout(5.0, "slow")
        any_event = AnyOf(sim, [fast, slow])
        times = []
        any_event.add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [1.0]
        assert any_event.value == {fast: "fast"}

    def test_allof_waits_for_all(self, sim):
        fast = sim.timeout(1.0, "fast")
        slow = sim.timeout(5.0, "slow")
        all_event = AllOf(sim, [fast, slow])
        times = []
        all_event.add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [5.0]
        assert all_event.value == {fast: "fast", slow: "slow"}

    def test_empty_allof_fires_immediately(self, sim):
        all_event = AllOf(sim, [])
        sim.run()
        assert all_event.triggered
        assert all_event.value == {}

    def test_detached_wait_leaves_no_reference_cycle(self, sim):
        # A timed-out wait on children that never fire (Corda's flow
        # timeout): detaching unhooks the wait and, through it, the
        # inner condition nobody waits on any more.
        replies = [sim.event(), sim.event()]
        timeout = sim.timeout(1.0)
        wait = AnyOf(sim, [AllOf(sim, replies), timeout])
        sim.run()
        assert wait.value == {timeout: None}
        gc.collect()
        wait.detach()
        assert all(reply._callbacks == [] for reply in replies)
        del wait, replies, timeout
        assert gc.collect() == 0

    def test_failing_child_fails_condition(self, sim):
        bad = sim.event()
        good = sim.timeout(2.0)
        all_event = AllOf(sim, [bad, good])
        bad.fail(RuntimeError("child failed"))
        sim.run()
        assert all_event.triggered
        assert not all_event.ok


class TestRepr:
    """Labels are formatted when shown, with the same text as ever."""

    def test_timeout(self, sim):
        timeout = sim.timeout(0.5)
        assert repr(timeout) == "<Timeout(0.5) pending at t=0.000000>"
        sim.run()
        assert repr(timeout) == "<Timeout(0.5) ok at t=0.500000>"

    def test_resource_acquire(self, sim):
        pool = ReferenceResource(sim, capacity=1, name="cpu")
        granted, queued = pool.acquire(), pool.acquire()
        assert repr(granted) == "<acquire:cpu ok at t=0.000000>"
        assert repr(queued) == "<acquire:cpu pending at t=0.000000>"

    def test_store_get_and_put(self, sim):
        store = ReferenceStore(sim, name="pool")
        waiting_get = store.get()
        assert repr(waiting_get) == "<get:pool pending at t=0.000000>"
        assert repr(store.put("a")) == "<put:pool ok at t=0.000000>"
        assert repr(waiting_get) == "<get:pool ok at t=0.000000>"

    def test_plain_and_unnamed_events(self, sim):
        assert repr(sim.event("ready")) == "<ready pending at t=0.000000>"
        assert repr(sim.event()) == "<Event pending at t=0.000000>"
        failed = sim.event()
        failed.fail(RuntimeError("boom"))
        assert repr(failed) == "<Event failed at t=0.000000>"
