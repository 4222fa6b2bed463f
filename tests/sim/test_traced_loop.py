"""The traced dispatch loop's ``sim.*`` instruments against a per-pop loop.

``Simulator.run`` tallies pops, dispatches and cancelled timers and the
queue depth's last, lowest and highest value in locals, and folds them
into the metrics once, when the loop exits. :func:`per_pop_run` is the
loop as it was before that: one ``Gauge.set`` and one ``Counter.inc``
per pop. The flushed snapshot must equal the per-pop one exactly, value
types included, after every ``run()``.
"""

import heapq
import math

import pytest

from repro.sim import Simulator
from repro.trace.config import TraceConfig
from repro.trace.tracer import Tracer


def per_pop_run(sim, until=None):
    """``Simulator.run`` with a live tracer, updating the instruments at
    every pop (the reference; no reentrancy guard)."""
    if until is not None and until < sim.now:
        return sim.now
    bound = math.inf if until is None else until
    queue = sim._queue
    ready = sim._ready
    metrics = sim.tracer.metrics
    depth = dispatches = cancelled = None
    while True:
        if ready:
            entry = ready.popleft()
        elif queue and queue[0][0] <= bound:
            entry = heapq.heappop(queue)
            now = sim.now = entry[0]
            while queue and queue[0][0] == now:
                ready.append(heapq.heappop(queue))
        else:
            break
        if depth is None:
            depth = metrics.gauge("sim.queue_depth", system="sim")
        depth.set(len(queue) + len(ready))
        __, __, callback, args = entry
        if callback is None:
            if cancelled is None:
                cancelled = metrics.counter("sim.timers_cancelled", system="sim")
            cancelled.inc()
            continue
        if dispatches is None:
            dispatches = metrics.counter("sim.dispatches", system="sim")
        dispatches.inc()
        callback(*args)
    if until is not None and sim.now < until:
        sim.now = until
    return sim.now


class Boom(Exception):
    """Raised by a scenario callback mid-run."""


def scenario(sim, log, raise_at=None):
    """Timers in both lanes, some cancelled; fan-outs that deepen the
    queue; optionally one callback that raises at ``raise_at``."""

    def tick(label, left):
        log.append((label, sim.now))
        if raise_at is not None and sim.now >= raise_at and label == "a":
            raise Boom(label)
        if left:
            # A fan-out: several heap entries, one ready-lane entry.
            for i in range(3):
                sim.schedule(0.25 * (i + 1), log.append, (label, i))
            sim.schedule(0.0, log.append, (label, "now"))
            sim.schedule(1.0, tick, label, left - 1)
            # A progress timer re-armed each tick: the old one is
            # cancelled in the heap, a zero-delay one in the ready lane.
            heap_timer = sim.schedule_cancellable(0.5, log.append, (label, "timer"))
            ready_timer = sim.schedule_cancellable(0.0, log.append, (label, "ready-timer"))
            if left % 2:
                heap_timer.cancel()
            ready_timer.cancel()

    for label in ("a", "b", "c"):
        sim.schedule(0.1, tick, label, 6)


def snapshot(tracer):
    # repr, not ==: a gauge set from ints must stay an int.
    return repr(tracer.metrics.snapshot())


def pair(raise_at=None):
    """Two simulators on the same scenario, each with its own tracer."""
    sims = []
    for __ in range(2):
        sim = Simulator(seed=1)
        tracer = Tracer(TraceConfig())
        sim.set_tracer(tracer)
        log = []
        scenario(sim, log, raise_at)
        sims.append((sim, tracer, log))
    return sims


class TestTracedLoopFlush:
    def test_two_runs_with_an_until_bound_match_per_pop_updates(self):
        (sim, tracer, log), (ref, ref_tracer, ref_log) = pair()
        assert sim.run(until=2.6) == per_pop_run(ref, until=2.6) == 2.6
        assert snapshot(tracer) == snapshot(ref_tracer)
        assert sim.run() == per_pop_run(ref)
        assert snapshot(tracer) == snapshot(ref_tracer)
        assert log == ref_log
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["sim/sim.timers_cancelled"]["value"] > 0
        gauge = tracer.metrics.gauge("sim.queue_depth", system="sim")
        assert gauge.updates == (
            counters["sim/sim.dispatches"]["value"]
            + counters["sim/sim.timers_cancelled"]["value"]
        )

    def test_a_bound_in_the_past_and_an_empty_run_flush_nothing(self):
        (sim, tracer, __), (ref, ref_tracer, __) = pair()
        sim.run(until=1.0)
        per_pop_run(ref, until=1.0)
        before = snapshot(tracer)
        assert sim.run(until=0.5) == 1.0
        assert snapshot(tracer) == before == snapshot(ref_tracer)

    def test_counts_up_to_a_raising_callback_are_flushed(self):
        (sim, tracer, log), (ref, ref_tracer, ref_log) = pair(raise_at=3.0)
        with pytest.raises(Boom):
            sim.run()
        with pytest.raises(Boom):
            per_pop_run(ref)
        assert log == ref_log
        assert snapshot(tracer) == snapshot(ref_tracer)
        assert tracer.metrics.counter("sim.dispatches", system="sim").value > 0
        # The loop is usable again, and keeps matching after the raise.
        sim.run()
        per_pop_run(ref)
        assert snapshot(tracer) == snapshot(ref_tracer)
        assert log == ref_log

    def test_cancelled_only_pops_create_no_dispatch_counter(self):
        sim = Simulator()
        tracer = Tracer(TraceConfig())
        sim.set_tracer(tracer)
        sim.schedule_cancellable(0.0, print).cancel()
        sim.schedule_cancellable(1.0, print).cancel()
        sim.run()
        assert tracer.metrics.snapshot() == {
            "counters": {"sim/sim.timers_cancelled": {"value": 2.0}},
            "gauges": {"sim/sim.queue_depth": {"value": 0, "max": 1, "min": 0, "updates": 2}},
            "histograms": {},
        }
