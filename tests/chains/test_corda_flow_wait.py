"""Order exactness: a Corda flow's reply waits dispatch like the generator's.

The generator flow waited on a reply event, or with parallel signing on
an ``AllOf`` over the signature replies; under fault injection it
waited on ``AnyOf([that, Timeout(FlowTimeout)])`` and gave up, detaching
the wait, when the timer won. :class:`repro.chains.corda_os._Flow` makes
those waits with callbacks. Random programs of serial (one reply) and
parallel (0-3 replies) waits, whose replies arrive before, exactly at or
after the flow timeout, or never, run once through the real ``_Flow``
on a real flow pool and once through the generator flow on
:mod:`tests.sim.reference`;
every ``schedule`` call, every logged action and the flow pool's idle
state must be identical, but for one kind of hop. ``_Flow`` cancels its
flow timer once the wait settles, so the hop the generator's timer made
when it fired after the replies had already settled the wait (its
``AnyOf`` callback, a no-op) is missing, and every later sequence
number is lower by one per such hop.
"""

import types
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.corda_os import CordaSystemBase, _Flow
from repro.sim import Resource
from tests.sim.reference import AllOf, AnyOf, ReferenceResource, ReferenceSimulator, Timeout

TX_ID = "tx1"


def _stale_timer_hop(callback, args) -> bool:
    """Whether a ``schedule`` call is a fired flow timeout waking an
    ``AnyOf`` that the replies already settled."""
    wait = getattr(callback, "__self__", None)
    return isinstance(wait, AnyOf) and wait.triggered and isinstance(args[0], Timeout)


class _RecordingSimulator(ReferenceSimulator):
    """Logs every ``schedule`` and ``schedule_cancellable`` call as
    ``(now, delay)``: a stale timer's hop in ``stale``, any other in
    ``calls``."""

    def __init__(self) -> None:
        super().__init__(seed=1)
        self.calls: typing.List[typing.Tuple[float, float]] = []
        self.stale: typing.List[typing.Tuple[float, float]] = []

    def schedule(self, delay, callback, *args):
        (self.stale if _stale_timer_hop(callback, args) else self.calls).append((self.now, delay))
        super().schedule(delay, callback, *args)

    def schedule_cancellable(self, delay, callback, *args):
        self.calls.append((self.now, delay))
        return super().schedule_cancellable(delay, callback, *args)


#: Reply delays: ``None`` never replies; 1.0 and 2.0 tie with the flow
#: timeouts drawn below.
DELAYS = st.one_of(
    st.sampled_from([None, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)

#: Ready-lane hops between a reply's delay and its delivery, so that
#: one tied with the timer fires just after the timer, or just after
#: the timer settled the wait.
LATE = st.integers(min_value=0, max_value=2)


@st.composite
def programs(draw) -> dict:
    """A flow of 1-4 waits. A serial wait awaits one reply; a parallel
    wait awaits an ``AllOf`` over 0-3 replies."""
    waits = []
    for __ in range(draw(st.integers(min_value=1, max_value=4))):
        parallel = draw(st.booleans())
        count = draw(st.integers(min_value=0, max_value=3)) if parallel else 1
        waits.append({
            "parallel": parallel,
            "delays": [draw(DELAYS) for __ in range(count)],
            "late": [draw(LATE) for __ in range(count)],
        })
    return {
        "fault_mode": draw(st.booleans()),
        "timeout": draw(st.sampled_from([1.0, 2.0])),
        "waits": waits,
    }


def _kinds(index: int, wait: dict) -> typing.List[str]:
    return [f"w{index}:r{reply}" for reply in range(len(wait["delays"]))]


def execute(program: dict, callbacks: bool) -> dict:
    """Run ``program`` through the callback flow or the generator flow."""
    sim = _RecordingSimulator()
    pool = (Resource if callbacks else ReferenceResource)(sim, 1)
    log: list = []

    def note(*label: object) -> None:
        # The sequence number as if no stale timer hop had been made.
        log.append((sim.now, sim._sequence - len(sim.stale)) + label)

    system = types.SimpleNamespace(
        sim=sim, fault_mode=program["fault_mode"],
        params={"FlowTimeout": program["timeout"]}, _pending_replies={},
    )
    node = types.SimpleNamespace(
        flows_timed_out=0, flow_pool=pool,
        reject_client=lambda client_id, payload_ids, reason: note("reject", payload_ids, reason),
    )

    def deliver(kind: str, value: object) -> None:
        note("deliver", kind)
        if callbacks:
            CordaSystemBase.resolve_reply(system, TX_ID, kind, value)
        else:
            event = system._pending_replies.pop((TX_ID, kind), None)
            if event is not None:
                event.succeed(value)

    def send(index: int, wait: dict) -> None:
        """The requests: each reply is delivered ``delay`` later."""
        for kind, delay, late in zip(_kinds(index, wait), wait["delays"], wait["late"]):
            if delay is None:
                continue
            hops = [sim.schedule, 0.0] * late
            sim.schedule(delay, *hops, deliver, kind, f"value-of-{kind}")

    waits = program["waits"]

    # The callback flow: ``_Flow``'s own waits, chained by continuations.
    flow = _Flow(
        system, node, "client",
        types.SimpleNamespace(tx_id=TX_ID, payloads=[types.SimpleNamespace(payload_id="p1")]),
    )

    def begin(index: int) -> None:
        if index == len(waits):
            note("finish")
            pool.release()
            return
        wait = waits[index]
        send(index, wait)

        def then(flow: _Flow, value: object) -> None:
            note("resumed", index, value)
            begin(index + 1)

        flow._wait(_kinds(index, wait), then, all_of=wait["parallel"])

    # The generator flow it replaces.
    def flow_wait(event) -> typing.Generator:
        if not system.fault_mode:
            value = yield event
            return value
        wait = AnyOf(sim, [event, sim.timeout(float(system.params["FlowTimeout"]))])
        waited = yield wait
        if event in waited:
            return waited[event]
        wait.detach()
        return None

    def reference_flow() -> typing.Generator:
        yield pool.acquire()
        try:
            for index, wait in enumerate(waits):
                events = []
                for kind in _kinds(index, wait):
                    event = sim.event(name=kind)
                    system._pending_replies[(TX_ID, kind)] = event
                    events.append(event)
                send(index, wait)
                if wait["parallel"]:
                    value = yield from flow_wait(AllOf(sim, events))
                else:
                    value = yield from flow_wait(events[0])
                if value is None:
                    for kind in _kinds(index, wait):
                        system._pending_replies.pop((TX_ID, kind), None)
                    node.flows_timed_out += 1
                    node.reject_client("client", ["p1"], "flow timed out")
                    return
                note("resumed", index, None if wait["parallel"] else value)
            note("finish")
        finally:
            pool.release()

    if callbacks:
        sim.schedule(0.0, pool.request, begin, 0)
    else:
        sim.spawn(reference_flow())
    sim.run()
    return {
        "calls": sim.calls,
        "stale": sim.stale,
        "log": log,
        "idle": (pool.in_use, pool.queued),
        "timed_out": node.flows_timed_out,
        "pending": sorted(system._pending_replies),
    }


def assert_matches(program: dict) -> dict:
    """Run ``program`` both ways; the callback flow makes the generator's
    calls and log, less its stale timer hops, of which it makes none.
    Returns the reference run."""
    reference = execute(program, callbacks=False)
    result = execute(program, callbacks=True)
    assert result["stale"] == []
    assert result == dict(reference, stale=[])
    return reference


class TestFlowWaitMatchesGenerator:
    @settings(max_examples=200, deadline=None)
    @given(program=programs())
    def test_reply_waits_match_anyof_allof_generator(self, program):
        assert_matches(program)

    def test_timer_beaten_by_the_replies_is_cancelled(self):
        # Both waits settle by reply, long before their timers are due:
        # the generator's two timers still fire, each into a settled
        # ``AnyOf``; the flow's two are cancelled and fire nothing.
        program = {"fault_mode": True, "timeout": 1.0, "waits": [
            {"parallel": False, "delays": [0.25], "late": [0]},
            {"parallel": True, "delays": [0.5, 0.0], "late": [0, 1]},
        ]}
        reference = assert_matches(program)
        assert reference["stale"] == [(1.0, 0.0), (1.25, 0.0)]
        assert [entry[2:] for entry in reference["log"] if entry[2] != "deliver"] == [
            ("resumed", 0, "value-of-w0:r0"), ("resumed", 1, None), ("finish",),
        ]

    def test_reply_tied_with_the_timer_wins_if_it_fired_before_the_wait_settled(self):
        # The timer fires first, the reply at the same instant just
        # after it: the wait settles in the timer's hop, which finds
        # the reply there, so the reply wins.
        program = {"fault_mode": True, "timeout": 1.0, "waits": [
            {"parallel": False, "delays": [1.0], "late": [1]},
            {"parallel": True, "delays": [0.5, None], "late": [0, 0]},
        ]}
        reference = assert_matches(program)
        assert reference["stale"] == []
        assert [entry[2:] for entry in reference["log"] if entry[2] != "deliver"] == [
            ("resumed", 0, "value-of-w0:r0"),
            ("reject", ["p1"], "flow timed out"),
        ]
        assert reference["idle"] == (0, 0) and reference["pending"] == []

    def test_reply_after_the_timer_settled_the_wait_is_dropped(self):
        # The last signature reply reaches the flow after the timer
        # settled the wait, before the flow gave up: it completes the
        # ``AllOf``, which the flow then no longer waits on.
        program = {"fault_mode": True, "timeout": 1.0, "waits": [
            {"parallel": True, "delays": [0.5, 1.0], "late": [0, 2]},
        ]}
        reference = assert_matches(program)
        assert reference["stale"] == []
        assert [entry[2:] for entry in reference["log"] if entry[2] != "deliver"] == [
            ("reject", ["p1"], "flow timed out"),
        ]
