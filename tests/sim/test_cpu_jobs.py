"""Order exactness: a callback CPU job dispatches like a ``busy()`` process.

The reference is the code the callback jobs replaced: a spawned process
whose body is ``yield from busy(cost)`` followed by plain code, where
``busy`` is ``BaseNode.busy``. Random programs of one-shot jobs and
long-lived ``busy()`` loops share 1- and 2-slot resources; run once with
the jobs as processes and once as :meth:`Resource.hold` callbacks, every
``schedule`` call, every logged action and every grant and finish time
must be identical.
"""

import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.base import BaseNode
from repro.sim import Resource, Simulator


class _RecordingSimulator(Simulator):
    """Logs every ``schedule`` call as ``(now, delay)``."""

    def __init__(self) -> None:
        super().__init__(seed=1)
        self.calls: typing.List[typing.Tuple[float, float]] = []

    def schedule(self, delay, callback, *args):
        self.calls.append((self.now, delay))
        super().schedule(delay, callback, *args)


class _GrantLoggingResource(Resource):
    """Logs the hop in which a callback job is granted its slot."""

    def __init__(self, sim: Simulator, capacity: int, grants: dict) -> None:
        super().__init__(sim, capacity)
        self.grants = grants

    def _held(self, duration, callback, args):
        self.grants[args[0]] = self.sim.now
        super()._held(duration, callback, args)


def _busy(sim: Simulator, resource: Resource, duration: float) -> typing.Generator:
    """``BaseNode.busy`` itself, run against ``resource``."""
    return BaseNode.busy(types.SimpleNamespace(sim=sim, cpu=resource), duration)


#: Exact zeros, a positive cost that rounds to ``now`` at any ``now`` >=
#: ~1e-284 (but not at 0), colliding decimals and plain positive times.
COSTS = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-300, 0.1, 0.2, 0.3, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)

#: Arrival delays, mostly from a few values so that arrivals tie.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 1e-300]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)


@st.composite
def programs(draw) -> dict:
    """A random program over 1-3 resources of capacity 1 or 2.

    A job arrives ``delay`` after the run starts (a root) or after its
    ``parent`` job's continuation ran, which schedules the arrival. On
    arrival it starts where ``sim.spawn`` stood; a job with ``pre``
    logs an action in its start hop before asking for the slot, as
    Sawtooth's admission broadcasts first. A loop is a long-lived
    process that runs ``busy()`` once per cost, logging after each.
    """
    capacities = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3))
    resources = len(capacities)
    count = draw(st.integers(min_value=1, max_value=30))
    jobs = []
    for index in range(count):
        root = index == 0 or draw(st.booleans())
        jobs.append({
            "resource": draw(st.integers(min_value=0, max_value=resources - 1)),
            "cost": draw(COSTS),
            "delay": draw(DELAYS),
            "parent": None if root else draw(st.integers(min_value=0, max_value=index - 1)),
            "pre": draw(st.booleans()),
        })
    loops = draw(st.lists(
        st.fixed_dictionaries({
            "resource": st.integers(min_value=0, max_value=resources - 1),
            "delay": DELAYS,
            "costs": st.lists(COSTS, min_size=1, max_size=4),
        }),
        max_size=3,
    ))
    return {"capacities": capacities, "jobs": jobs, "loops": loops}


def execute(program: dict, callback_jobs: bool) -> dict:
    """Run ``program`` with its one-shot jobs as callbacks or as
    spawn+``busy()`` processes; returns everything the run observed."""
    sim = _RecordingSimulator()
    grants: dict = {}
    resources = [
        _GrantLoggingResource(sim, capacity, grants) for capacity in program["capacities"]
    ]
    jobs = program["jobs"]
    children: typing.Dict[int, typing.List[int]] = {}
    for index, job in enumerate(jobs):
        if job["parent"] is not None:
            children.setdefault(job["parent"], []).append(index)
    log: list = []

    def note(*label: object) -> None:
        log.append((sim.now, sim._sequence) + label)

    def finish(index: int) -> None:
        note("finish", index)
        for child in children.get(index, ()):
            sim.schedule(jobs[child]["delay"], arrive, child)

    def request_slot(index: int) -> None:
        job = jobs[index]
        if job["pre"]:
            note("pre", index)
        resources[job["resource"]].hold(job["cost"], finish, index)

    def reference_body(index: int) -> typing.Generator:
        job = jobs[index]
        if job["pre"]:
            note("pre", index)
        yield from _busy_logged(index)
        finish(index)

    def _busy_logged(index: int) -> typing.Generator:
        job = jobs[index]
        busy = _busy(sim, resources[job["resource"]], job["cost"])
        # Step BaseNode.busy by hand to note the hop its grant resumes in.
        target = next(busy)
        while True:
            value = yield target
            if index not in grants:
                grants[index] = sim.now
            try:
                target = busy.send(value)
            except StopIteration:
                return

    def arrive(index: int) -> None:
        note("arrive", index)
        if callback_jobs:
            sim.schedule(0.0, request_slot, index)
        else:
            sim.spawn(reference_body(index))

    def loop(number: int, spec: dict) -> typing.Generator:
        for step, cost in enumerate(spec["costs"]):
            yield from _busy(sim, resources[spec["resource"]], cost)
            note("loop", number, step)

    for number, spec in enumerate(program["loops"]):
        sim.schedule(spec["delay"], sim.spawn, loop(number, spec))
    for index, job in enumerate(jobs):
        if job["parent"] is None:
            sim.schedule(job["delay"], arrive, index)
    sim.run()
    return {
        "calls": sim.calls,
        "log": log,
        "grants": grants,
        "idle": [(resource.in_use, resource.queued) for resource in resources],
    }


class TestCallbackJobsMatchBusyProcesses:
    @settings(max_examples=120, deadline=None)
    @given(program=programs())
    def test_dispatch_matches_spawn_and_busy(self, program):
        reference = execute(program, callback_jobs=False)
        jobs = execute(program, callback_jobs=True)
        assert jobs["calls"] == reference["calls"]
        assert jobs["log"] == reference["log"]
        assert jobs["grants"] == reference["grants"]
        assert jobs["idle"] == reference["idle"] == [(0, 0)] * len(program["capacities"])

    def test_tied_arrivals_on_one_slot_are_served_fifo(self):
        program = {
            "capacities": [1],
            "jobs": [
                {"resource": 0, "cost": cost, "delay": 0.0, "parent": None, "pre": False}
                for cost in (0.5, 0.0, 1e-300, 0.5)
            ],
            "loops": [{"resource": 0, "delay": 0.0, "costs": [0.25]}],
        }
        reference = execute(program, callback_jobs=False)
        assert execute(program, callback_jobs=True) == reference
        finishes = [entry[3] for entry in reference["log"] if entry[2] == "finish"]
        assert finishes == [0, 1, 2, 3]
        assert reference["grants"] == {0: 0.25, 1: 0.75, 2: 0.75, 3: 0.75}


class TestHold:
    def test_zero_cost_continues_in_the_grant_hop(self):
        sim = Simulator(seed=1)
        cpu = Resource(sim, capacity=1)
        seen = []
        cpu.hold(0.0, lambda: seen.append((sim.now, sim._sequence, cpu.in_use)))
        sim.run()
        # One grant hop and nothing else; the slot is free again.
        assert seen == [(0.0, 1, 0)]

    def test_positive_cost_takes_timer_and_ready_hop(self):
        sim = Simulator(seed=1)
        cpu = Resource(sim, capacity=1)
        seen = []
        cpu.hold(0.5, lambda: seen.append((sim.now, sim._sequence, cpu.in_use)))
        sim.run()
        assert seen == [(0.5, 3, 0)]

    def test_callback_and_acquire_waiters_share_one_fifo(self):
        sim = Simulator(seed=1)
        cpu = Resource(sim, capacity=1)
        order = []

        def holder() -> typing.Generator:
            yield cpu.acquire()
            yield sim.timeout(1.0)
            cpu.release()

        def waiter() -> typing.Generator:
            yield cpu.acquire()
            order.append(("process", sim.now))
            cpu.release()

        sim.spawn(holder())
        sim.schedule(0.5, cpu.hold, 1.0, lambda: order.append(("job", sim.now)))
        sim.schedule(0.6, sim.spawn, waiter())
        sim.run()
        assert order == [("job", 2.0), ("process", 2.0)]
        assert (cpu.in_use, cpu.queued) == (0, 0)

    def test_exception_in_continuation_propagates_out_of_run(self):
        sim = Simulator(seed=1)
        cpu = Resource(sim, capacity=1)

        def fail() -> None:
            raise RuntimeError("continuation failed")

        cpu.hold(0.25, fail)
        with pytest.raises(RuntimeError, match="continuation failed"):
            sim.run()
        assert sim.now == 0.25
