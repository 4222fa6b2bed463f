"""Ordering equivalence: the two-lane kernel dispatches exactly like one heap.

:class:`ReferenceDispatcher` is the specification: a single heap of
``[time, sequence, callback, args]`` entries popped in ``(time,
sequence)`` order, with cancellation as an in-place tombstone. Random
programs run against it and against :class:`~repro.sim.kernel.Simulator`,
and the two dispatch logs must be identical, event for event.
"""

import heapq
import math
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.trace.config import TraceConfig
from repro.trace.tracer import Tracer


class _ReferenceHandle:
    def __init__(self, callback: typing.Callable[..., None]) -> None:
        self._callback = callback
        self._fired = False
        self.entry: list = []

    def cancel(self) -> bool:
        if self._fired or self.entry[2] is None:
            return False
        self.entry[2] = None
        return True

    def fire(self, *args: object) -> None:
        self._fired = True
        self._callback(*args)


class ReferenceDispatcher:
    """One heap ordered by ``(time, sequence)``: the order the kernel must keep."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []
        self._sequence = 0

    def schedule(self, delay: float, callback: typing.Callable[..., None], *args: object) -> None:
        self._push(delay, callback, args)

    def schedule_cancellable(
        self, delay: float, callback: typing.Callable[..., None], *args: object
    ) -> _ReferenceHandle:
        handle = _ReferenceHandle(callback)
        handle.entry = self._push(delay, handle.fire, args)
        return handle

    def _push(self, delay: float, callback: typing.Callable[..., None], args: tuple) -> list:
        self._sequence += 1
        entry = [self.now + delay, self._sequence, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def run(self, until: typing.Optional[float] = None) -> float:
        bound = math.inf if until is None else until
        while self._heap and self._heap[0][0] <= bound:
            time, __, callback, args = heapq.heappop(self._heap)
            self.now = time
            if callback is not None:
                callback(*args)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def pending_events(self) -> int:
        return len(self._heap)


#: Delays mixing exact zeros, a positive delay that rounds to ``now``
#: at any ``now`` >= ~1e-284 (but not at 0), binary-inexact decimals
#: whose sums collide or just miss, and plain positive times.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-300, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)


@st.composite
def programs(draw) -> dict:
    """A random schedule program.

    Node ``i`` is scheduled with ``delay`` either from outside the loop
    before run segment ``segment`` (a root) or by ``parent``'s callback
    when it runs. A cancellable node's handle goes into a shared table;
    a running node cancels the handles named in ``cancels``, if they
    were armed by then (cancelling a fired or cancelled timer is a safe
    no-op in both dispatchers).
    """
    splits = draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5, 2.5]), max_size=3))
    splits.sort()
    segments = len(splits) + 1
    count = draw(st.integers(min_value=1, max_value=40))
    nodes = []
    for index in range(count):
        root = index == 0 or draw(st.booleans())
        nodes.append({
            "delay": draw(DELAYS),
            "cancellable": draw(st.booleans()),
            "parent": None if root else draw(st.integers(min_value=0, max_value=index - 1)),
            "segment": draw(st.integers(min_value=0, max_value=segments - 1)),
            "cancels": draw(st.lists(st.integers(min_value=0, max_value=count - 1), max_size=2)),
        })
    return {"splits": splits, "nodes": nodes}


def execute(dispatcher, program: dict) -> list:
    """Run ``program`` on ``dispatcher``; return the dispatch log, with the
    clock and queue size after every run segment."""
    nodes = program["nodes"]
    children: typing.Dict[int, typing.List[int]] = {}
    for index, node in enumerate(nodes):
        if node["parent"] is not None:
            children.setdefault(node["parent"], []).append(index)
    handles: typing.Dict[int, object] = {}
    log: list = []

    def arm(index: int) -> None:
        node = nodes[index]
        if node["cancellable"]:
            handles[index] = dispatcher.schedule_cancellable(node["delay"], fire, index)
        else:
            dispatcher.schedule(node["delay"], fire, index)

    def fire(index: int) -> None:
        log.append(("fire", index, dispatcher.now))
        for victim in nodes[index]["cancels"]:
            if victim in handles:
                log.append(("cancel", victim, handles[victim].cancel()))
        for child in children.get(index, ()):
            arm(child)

    bounds = program["splits"] + [None]
    for segment, until in enumerate(bounds):
        for index, node in enumerate(nodes):
            if node["parent"] is None and node["segment"] == segment:
                arm(index)
        stopped = dispatcher.run(until=until)
        log.append(("stop", stopped, dispatcher.now, dispatcher.pending_events()))
    return log


class TestOrderingEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(program=programs(), traced=st.booleans())
    def test_dispatch_order_matches_single_heap(self, program, traced):
        sim = Simulator(seed=1)
        if traced:
            sim.set_tracer(Tracer(TraceConfig()))
        assert execute(sim, program) == execute(ReferenceDispatcher(), program)

    def test_positive_delay_rounding_to_now_keeps_sequence_order(self):
        # At now=1.0, 1e-300 does not move the clock: the entry is due
        # now, after the heap entry already due now and before a later one.
        program = {
            "splits": [],
            "nodes": [
                {"delay": 1.0, "cancellable": False, "parent": None, "segment": 0, "cancels": []},
                {"delay": 1.0, "cancellable": True, "parent": None, "segment": 0, "cancels": []},
                {"delay": 1e-300, "cancellable": False, "parent": 0, "segment": 0, "cancels": []},
                {"delay": 0.0, "cancellable": True, "parent": 0, "segment": 0, "cancels": [3]},
            ],
        }
        log = execute(Simulator(seed=1), program)
        assert log == execute(ReferenceDispatcher(), program)
        assert [entry[1] for entry in log if entry[0] == "fire"] == [0, 1, 2, 3]
