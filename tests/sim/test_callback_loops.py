"""Order exactness: a callback Store consumer dispatches like a generator loop.

The node loops (committers, event emitters, the Kafka committer) used to
be processes of the shape ``while True: item = yield store.get(); yield
from busy(cost)`` (or ``yield sim.timeout(cost)`` when ``cost`` is
positive), driven by :mod:`tests.sim.reference`. They are now a
callback handed to :meth:`Store.get <repro.sim.stores.Store.get>`, whose
work is :meth:`Resource.hold <repro.sim.resources.Resource.hold>` or
:meth:`Simulator.resume_after <repro.sim.kernel.Simulator.resume_after>`,
and which asks for the next item when it is done. Random programs of
1-2 loops, with producers putting items at tied and distinct times and
one-shot CPU jobs competing for the loops' CPU, run both ways, the
callback way on the real :class:`~repro.sim.resources.Resource`; every
``schedule`` call, every logged action and the CPU's idle state must be
identical.
"""

import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.resources import Resource
from repro.sim.stores import Store
from tests.sim.reference import ReferenceResource, ReferenceSimulator, ReferenceStore, busy


class _RecordingSimulator(ReferenceSimulator):
    """Logs every ``schedule`` call as ``(now, delay)``."""

    def __init__(self) -> None:
        super().__init__(seed=1)
        self.calls: typing.List[typing.Tuple[float, float]] = []

    def schedule(self, delay, callback, *args):
        self.calls.append((self.now, delay))
        super().schedule(delay, callback, *args)


#: Exact zeros, a positive cost that rounds to ``now`` at any ``now`` >=
#: ~1e-284 (but not at 0), colliding decimals and plain positive times.
COSTS = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-300, 0.1, 0.2, 0.3, 0.5]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

#: Put and arrival times, mostly from a few values so that they tie.
TIMES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.3, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)


@st.composite
def programs(draw) -> dict:
    """1-2 loops on one CPU of capacity 1 or 2. Each loop spends its
    items' costs either on the CPU (``busy``) or as a plain wait; items
    are put at absolute times; one-shot jobs hold the CPU too."""
    loops = draw(st.lists(
        st.fixed_dictionaries({
            "start": TIMES,
            "on_cpu": st.booleans(),
            "items": st.lists(st.tuples(TIMES, COSTS), max_size=8),
        }),
        min_size=1, max_size=2,
    ))
    jobs = draw(st.lists(st.tuples(TIMES, COSTS), max_size=6))
    return {"capacity": draw(st.sampled_from([1, 2])), "loops": loops, "jobs": jobs}


def execute(program: dict, callbacks: bool) -> dict:
    """Run ``program`` with its loops as callbacks or as processes."""
    sim = _RecordingSimulator()
    cpu = (Resource if callbacks else ReferenceResource)(sim, program["capacity"])
    log: list = []

    def note(*label: object) -> None:
        log.append((sim.now, sim._sequence) + label)

    def reference_loop(number: int, store: ReferenceStore, on_cpu: bool) -> typing.Generator:
        while True:
            item, cost = yield store.get()
            note("got", number, item)
            if on_cpu:
                yield from busy(sim, cpu, cost)
            elif cost > 0:
                yield sim.timeout(cost)
            note("done", number, item)

    def callback_loop(number: int, store: Store, on_cpu: bool) -> None:
        def take(entry: tuple) -> None:
            item, cost = entry
            note("got", number, item)
            if on_cpu:
                cpu.hold(cost, done, item)
            elif cost > 0:
                sim.resume_after(cost, done, item)
            else:
                done(item)

        def done(item: int) -> None:
            note("done", number, item)
            store.get(take)

        store.get(take)

    for number, loop in enumerate(program["loops"]):
        if callbacks:
            store = Store(sim)
            sim.schedule(
                loop["start"], sim.schedule, 0.0, callback_loop, number, store, loop["on_cpu"]
            )
        else:
            store = ReferenceStore(sim)
            sim.schedule(loop["start"], sim.spawn, reference_loop(number, store, loop["on_cpu"]))
        for item, (time, cost) in enumerate(loop["items"]):
            sim.schedule(time, store.put, (item, cost))
    for index, (time, cost) in enumerate(program["jobs"]):
        sim.schedule(time, cpu.hold, cost, note, "job", index)
    sim.run()
    return {"calls": sim.calls, "log": log, "idle": (cpu.in_use, cpu.queued)}


class TestCallbackLoopsMatchGeneratorLoops:
    @settings(max_examples=150, deadline=None)
    @given(program=programs())
    def test_store_consumer_matches_get_and_busy_loop(self, program):
        reference = execute(program, callbacks=False)
        loops = execute(program, callbacks=True)
        assert loops["calls"] == reference["calls"]
        assert loops["log"] == reference["log"]
        assert loops["idle"] == reference["idle"] == (0, 0)

    def test_items_queued_before_the_loop_starts_are_taken_in_order(self):
        program = {
            "capacity": 1,
            "loops": [
                {"start": 1.0, "on_cpu": True, "items": [(0.0, 0.5), (0.0, 0.0), (1.0, 0.2)]},
            ],
            "jobs": [(1.0, 0.25)],
        }
        reference = execute(program, callbacks=False)
        assert execute(program, callbacks=True) == reference
        done = [entry[4] for entry in reference["log"] if entry[2] == "done"]
        assert done == [0, 1, 2]
