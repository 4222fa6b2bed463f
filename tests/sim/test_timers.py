"""Cancellable-timer semantics: TimerHandle lifecycle and determinism."""

import pytest

from repro.sim import Simulator, TimerHandle


class TestTimerHandle:
    def test_fires_with_args(self):
        sim = Simulator(seed=1)
        fired = []
        handle = sim.schedule_cancellable(1.0, fired.append, "x")
        assert isinstance(handle, TimerHandle)
        assert handle.active
        sim.run()
        assert fired == ["x"]
        assert not handle.active

    def test_cancel_before_fire(self):
        sim = Simulator(seed=1)
        fired = []
        handle = sim.schedule_cancellable(1.0, fired.append, "x")
        assert handle.cancel() is True
        assert not handle.active
        sim.run()
        assert fired == []
        assert sim.now == pytest.approx(1.0)  # the tombstone still advanced time

    def test_cancel_twice_returns_false(self):
        sim = Simulator(seed=1)
        handle = sim.schedule_cancellable(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        sim.run()
        assert handle.cancel() is False

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator(seed=1)
        fired = []
        handle = sim.schedule_cancellable(1.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]
        assert handle.cancel() is False
        assert not handle.active

    def test_rearm_only_last_timer_fires(self):
        sim = Simulator(seed=1)
        fired = []
        handle = None
        for generation in range(5):
            if handle is not None:
                handle.cancel()
            handle = sim.schedule_cancellable(1.0 + generation, fired.append, generation)
        sim.run()
        assert fired == [4]

    def test_cancel_from_within_callback(self):
        # A dispatched event cancelling a later timer: the tombstone is
        # skipped when it surfaces, not dispatched.
        sim = Simulator(seed=1)
        fired = []
        victim = sim.schedule_cancellable(2.0, fired.append, "victim")
        sim.schedule(1.0, victim.cancel)
        sim.schedule(3.0, fired.append, "after")
        sim.run()
        assert fired == ["after"]

    def test_negative_delay_rejected(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError):
            sim.schedule_cancellable(-0.1, lambda: None)


class TestDeterminism:
    def test_cancelled_timer_consumes_its_sequence_number(self):
        """A cancelled timer must not shift the FIFO order of same-instant
        events relative to a run where it fired as a no-op."""

        def order_with(noop_timer_cancelled):
            sim = Simulator(seed=1)
            order = []
            sim.schedule(1.0, order.append, "a")
            handle = sim.schedule_cancellable(1.0, lambda: None)
            sim.schedule(1.0, order.append, "b")
            if noop_timer_cancelled:
                handle.cancel()
            sim.run()
            return order

        assert order_with(True) == order_with(False) == ["a", "b"]

    def test_pending_events_counts_tombstones(self):
        sim = Simulator(seed=1)
        handle = sim.schedule_cancellable(1.0, lambda: None)
        handle.cancel()
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0

    def test_traced_run_counts_tombstone_pops_as_cancelled(self):
        """A cancelled timer's pop sets the queue-depth gauge like any
        pop, but counts in ``sim.timers_cancelled``, not in
        ``sim.dispatches``: the two counters split the pops."""
        from repro.trace.config import TraceConfig
        from repro.trace.tracer import Tracer

        def metrics_with(cancelled):
            sim = Simulator(seed=1)
            tracer = Tracer(TraceConfig())
            sim.set_tracer(tracer)
            handle = sim.schedule_cancellable(1.0, lambda: None)
            sim.schedule(2.0, lambda: None)
            if cancelled:
                handle.cancel()
            sim.run()
            return tracer.metrics.snapshot()

        fired, skipped = metrics_with(False), metrics_with(True)
        assert fired["gauges"] == skipped["gauges"]
        assert skipped["gauges"]["sim/sim.queue_depth"]["updates"] == 2
        assert fired["counters"] == {"sim/sim.dispatches": {"value": 2.0}}
        assert skipped["counters"] == {
            "sim/sim.dispatches": {"value": 1.0},
            "sim/sim.timers_cancelled": {"value": 1.0},
        }

    def test_run_skips_tombstones(self):
        sim = Simulator(seed=1)
        fired = []
        handle = sim.schedule_cancellable(0.5, fired.append, "stale")
        handle.cancel()

        def proc():
            yield sim.timeout(1.0)

        process = sim.spawn(proc())
        sim.run()
        assert process.triggered
        assert fired == []
        assert sim.now == pytest.approx(1.0)
