"""Unit tests for the Simulator event loop."""

import pytest

from repro.sim import SimulationError, Simulator
from tests.sim.reference import ReferenceSimulator


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_same_time_is_fifo(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda lab=label: order.append(lab))
        sim.run()
        assert order == list("abcde")

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    @pytest.mark.parametrize("method", ["schedule", "schedule_cancellable", "resume_after"])
    def test_nan_delay_is_refused(self, method):
        # A NaN entry at the heap top stopped run() as if the queue had
        # drained: it returned 0.0 with every later entry still queued.
        # A refused delay, NaN or negative, takes no sequence number.
        sim = Simulator()
        fired = []
        for delay in (float("nan"), -0.1):
            with pytest.raises(ValueError):
                getattr(sim, method)(delay, fired.append, "refused")
            assert sim._sequence == 0
        assert sim.pending_events() == 0
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.run() == 2.0
        assert fired == ["a", "b"]
        assert sim.pending_events() == 0

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(True))
        stopped_at = sim.run(until=5.0)
        assert stopped_at == 5.0
        assert fired == []
        sim.run()
        assert fired == [True]
        assert sim.now == 10.0

    def test_run_until_advances_clock_even_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=100.0) == 100.0

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(2.0, inner)

        def inner():
            times.append(sim.now)

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0, 3.0]


class TestScheduleWithArgs:
    def test_args_are_passed_positionally(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), "x", 2)
        sim.schedule(2.0, seen.append, "bare")
        sim.run()
        assert seen == [("x", 2), "bare"]

    def test_args_reach_traced_dispatch(self):
        from repro.trace.config import TraceConfig
        from repro.trace.tracer import Tracer

        sim = Simulator()
        sim.set_tracer(Tracer(TraceConfig()))
        seen = []
        sim.schedule(1.0, seen.append, 7)
        sim.run()
        assert seen == [7]


class TestRunUntilComplete:
    """``run()`` without a bound: it runs until the queue drains."""

    def test_returns_process_value(self):
        sim = ReferenceSimulator()

        def proc():
            yield sim.timeout(2.0)
            return "finished"

        process = sim.spawn(proc())
        sim.run()
        assert process.value == "finished"
        assert sim.now == 2.0

    def test_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(str(exc))
            sim.resume_after(1.0, errors.append, "resumed")

        sim.schedule(0.0, reenter)
        sim.run()
        assert errors[0].endswith("not reentrant") and errors[1:] == ["resumed"]
        assert sim.now == 1.0

    def test_dispatch_is_traced(self):
        from repro.trace.config import TraceConfig
        from repro.trace.tracer import Tracer

        sim = Simulator()
        tracer = Tracer(TraceConfig())
        sim.set_tracer(tracer)
        seen = []
        sim.resume_after(1.0, sim.resume_after, 1.0, seen.append, "done")
        sim.run()
        assert seen == ["done"]
        dispatches = tracer.metrics.counter("sim.dispatches", system="sim").value
        depth = tracer.metrics.gauge("sim.queue_depth", system="sim")
        assert dispatches >= 2
        assert depth.updates == dispatches

    def test_determinism_across_runs(self):
        def build_trace(seed):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("jitter")
            trace = []

            def step(name, left):
                trace.append((name, round(sim.now, 9)))
                if left:
                    sim.resume_after(rng.uniform(0.1, 1.0), step, name, left - 1)

            for name in ("a", "b"):
                sim.resume_after(rng.uniform(0.1, 1.0), step, name, 4)
            sim.run()
            return trace

        assert build_trace(42) == build_trace(42)
        assert build_trace(42) != build_trace(43)


class TestReadyLane:
    """Entries due at the current instant ride a FIFO lane beside the heap."""

    def test_pending_events_counts_both_lanes(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)  # due now: the ready lane
        sim.schedule(1.0, lambda: None)  # due later: the heap
        handle = sim.schedule_cancellable(0.0, lambda: None)
        handle.cancel()  # a tombstone still counts, in either lane
        assert sim.pending_events() == 3
        sim.run(until=0.5)
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0

    def test_heap_entries_due_now_run_before_same_instant_newcomers(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "zero-delay")
            sim.schedule(1e-300, order.append, "rounds-to-now")

        sim.schedule(1.0, first)
        sim.schedule(1.0, order.append, "second")
        sim.schedule(1.0 + 1e-9, order.append, "later")
        sim.run()
        assert order == ["first", "second", "zero-delay", "rounds-to-now", "later"]

    def test_ready_entries_wait_for_a_run_that_reaches_now(self):
        sim = Simulator()
        fired = []
        sim.run(until=2.0)
        sim.schedule(0.0, fired.append, "now")
        assert sim.run(until=1.0) == 2.0  # a bound in the past dispatches nothing
        assert fired == []
        assert sim.run(until=2.0) == 2.0
        assert fired == ["now"]

    def test_traced_run_over_empty_queue_creates_no_instruments(self):
        from repro.trace.config import TraceConfig
        from repro.trace.tracer import Tracer

        sim = Simulator()
        tracer = Tracer(TraceConfig())
        sim.set_tracer(tracer)
        sim.run()
        sim.run(until=5.0)
        assert len(tracer.metrics) == 0
        assert tracer.metrics.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_traced_queue_depth_counts_both_lanes(self):
        from repro.trace.config import TraceConfig
        from repro.trace.tracer import Tracer

        sim = Simulator()
        tracer = Tracer(TraceConfig())
        sim.set_tracer(tracer)
        sim.schedule(0.0, lambda: None)
        sim.schedule(0.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        depth = tracer.metrics.gauge("sim.queue_depth", system="sim")
        assert (depth.updates, depth.max_value, depth.value) == (3, 2, 0)
        assert "sim/sim.timers_cancelled" not in tracer.metrics.snapshot()["counters"]


class TestWaits:
    """A ``resume_after`` wait is a timer that queues its own ready-lane hop."""

    @pytest.mark.parametrize("delay", [0.0, 1e-300, 1.0])
    def test_hop_runs_behind_the_ready_lane_and_before_what_it_schedules(self, delay):
        # The timer sits ahead of ``a`` and ``b`` in the ready lane, so
        # when it fires both are queued: its hop goes behind them, and
        # ahead of the children they schedule for the same instant.
        sim = Simulator()
        order = []

        def parent(label):
            order.append(label)
            sim.schedule(0.0, order.append, f"{label}-child")

        sim.resume_after(delay, order.append, "hop")
        sim.schedule(delay, parent, "a")
        sim.schedule(delay, parent, "b")
        sim.run()
        assert order == ["a", "b", "hop", "a-child", "b-child"]

    def test_sequence_counts_every_queue_entry(self):
        from repro.sim import Resource
        from repro.trace.config import TraceConfig
        from repro.trace.tracer import Tracer

        sim = Simulator()
        tracer = Tracer(TraceConfig())
        sim.set_tracer(tracer)
        cpu = Resource(sim, capacity=1)
        seen = []
        sim.resume_after(0.5, seen.append, "wait")
        assert (sim._sequence, sim.pending_events()) == (2, 1)  # a timer and its hop
        sim.schedule(0.0, cpu.hold, 0.25, seen.append, "job")
        sim.schedule(0.0, cpu.hold, 0.0, seen.append, "free job")
        sim.schedule_cancellable(1.0, seen.append, "cancelled").cancel()
        sim.resume_after(1e-300, sim.resume_after, 0.0, seen.append, "nested")
        sim.run()
        assert seen == ["nested", "job", "free job", "wait"]
        metrics = tracer.metrics
        popped = (
            metrics.counter("sim.dispatches", system="sim").value
            + metrics.counter("sim.timers_cancelled", system="sim").value
        )
        # Waits 2 + 4 (two nested), job 4, free job 2, cancelled timer 1.
        assert sim.pending_events() == 0
        assert sim._sequence == popped == 13

    def test_clock_is_monotonic_across_run_until_calls(self):
        sim = Simulator()
        seen = []

        def tick(left):
            seen.append(sim.now)
            if left:
                sim.resume_after(0.3, tick, left - 1)

        sim.resume_after(0.0, tick, 10)
        sim.schedule(0.45, tick, 0)
        stops = []
        for until in (0.0, 0.5, 0.2, 0.5, 1.0, 1.7, 1.7, 0.9, 5.0):
            stops.append(sim.run(until=until))
            assert sim.now == stops[-1]
        assert stops == sorted(stops)
        assert seen == sorted(seen)
        assert stops[-1] == 5.0 and len(seen) == 12
