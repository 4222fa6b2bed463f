"""Trace event records: a shared key tuple and a value tuple, read as a dict.

:class:`~repro.trace.tracer.EventRecord` keeps an event's attributes as
``keys`` and ``values`` rather than as a dict, and every hot hook
passes its keys as one module-level constant. What a reader sees must
not change: ``attrs`` is the dict each hook used to build, in the same
key order, and ``to_dict``, ``==``, ``repr``, ``max_records`` and
``dropped_records`` behave as they did when a record held that dict.
"""

import dataclasses
import hashlib
import json

import pytest

import repro.chains.base as chains_base
from repro.chains.profiles import profile_for
from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.faults.plan import FaultAction, FaultPlan
from repro.storage.transaction import reset_id_counters
from repro.trace.config import TraceConfig
from repro.trace.tracer import EventRecord, Tracer

#: Every ``BoundInstruments.event`` hook in ``src/`` and its attribute
#: names, in the order each hook's dict literal listed them.
HOOK_KEYS = {
    "net.send": ("dst", "kind", "size"),
    "net.deliver": ("src", "kind", "latency"),
    "net.drop": ("dst", "kind", "size"),
    "decision": ("engine", "seq", "proposer"),
    "iel.apply": ("payloads", "iel"),
    "block.append": ("height", "txs", "payloads", "bytes"),
    "notify.drop": ("client", "count", "backlog"),
}

#: SHA-256 of the JSON of every event's ``to_dict``, in record order
#: and with each dict's own key order, of :func:`hooked_unit`. Captured
#: while each hook still stored a dict of its own per record.
EVENTS_DIGEST = "b45c41fd8c7733ff9f59a2f3ac2db6e61ce8c3fb0af3f3e476c50f9bb52fd016"


def hooked_unit(max_records=TraceConfig.max_records):
    """A small traced Quorum unit that reaches every hook: its replicas
    execute every block, the leader crashes at 2 s (so messages drop),
    and an event queue of 5 payloads drops client notifications."""
    config = BenchmarkConfig(
        system="quorum", iel="KeyValue", rate_limit=20, scale=0.02, seed=3,
        phases=("Set",), repetitions=1,
        fault_plan=FaultPlan([FaultAction.from_dict(
            {"kind": "crash", "at": 2.0, "target": "leader"}
        )]),
    )
    tracer = Tracer(TraceConfig(max_records=max_records))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains_base, "profile_for", lambda name: dataclasses.replace(
            profile_for(name), event_queue_capacity=5,
        ))
        reset_id_counters()
        BenchmarkRunner(tracer=tracer).run(config)
    return tracer


@pytest.fixture(scope="module")
def tracer():
    return hooked_unit()


def events_digest(events):
    encoded = json.dumps([event.to_dict() for event in events]).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class TestHooks:
    def test_every_hook_records_its_keys_in_order(self, tracer):
        seen = {event.name for event in tracer.events}
        assert set(HOOK_KEYS) <= seen
        for event in tracer.events:
            if event.name in HOOK_KEYS:
                assert list(event.attrs) == list(HOOK_KEYS[event.name]), event
                assert len(event.values) == len(event.keys)

    def test_each_hook_shares_one_key_tuple(self, tracer):
        keys_by_hook = {}
        for event in tracer.events:
            if event.name in HOOK_KEYS:
                keys_by_hook.setdefault(event.name, set()).add(id(event.keys))
        assert {name: len(ids) for name, ids in keys_by_hook.items()} == dict.fromkeys(
            HOOK_KEYS, 1
        )

    def test_records_equal_the_dicts_the_hooks_stored(self, tracer):
        assert events_digest(tracer.events) == EVENTS_DIGEST

    def test_a_capped_run_keeps_the_first_records_and_counts_the_rest(self, tracer):
        capped = hooked_unit(max_records=500)
        assert len(capped.spans) == 500
        assert capped.events == tracer.events[:500]
        assert capped.dropped_records == (
            len(tracer.events) - 500 + len(tracer.spans) - 500
        )
        assert capped.metrics.snapshot() == tracer.metrics.snapshot()


class TestRecord:
    def record(self, keys=("dst", "size"), values=("b", 3)):
        return EventRecord("net.send", "net", "a", 2.5, keys, values)

    def test_attrs_is_a_fresh_dict_in_key_order(self):
        record = self.record()
        assert list(record.attrs.items()) == [("dst", "b"), ("size", 3)]
        record.attrs["dst"] = "c"
        assert record.attrs == {"dst": "b", "size": 3}
        with pytest.raises(AttributeError):
            record.attrs = {}

    def test_to_dict(self):
        assert self.record().to_dict() == {
            "type": "event", "name": "net.send", "cat": "net", "node": "a",
            "time": 2.5, "attrs": {"dst": "b", "size": 3},
        }
        assert list(self.record().to_dict()) == ["type", "name", "cat", "node", "time", "attrs"]

    def test_equality_compares_attrs_as_dicts(self):
        record = self.record()
        assert record == self.record(("size", "dst"), (3, "b"))
        assert record != self.record(values=("b", 4))
        assert record != EventRecord("net.send", "net", "a", 2.0, record.keys, record.values)
        assert record.__eq__(("net.send", "net", "a", 2.5)) is NotImplemented
        with pytest.raises(TypeError):
            hash(record)

    def test_repr_shows_the_attrs_dict(self):
        assert repr(self.record()) == (
            "EventRecord(name='net.send', category='net', node='a', time=2.5, "
            "attrs={'dst': 'b', 'size': 3})"
        )
        assert repr(EventRecord("x", "", "", 0.0)) == (
            "EventRecord(name='x', category='', node='', time=0.0, attrs={})"
        )

    def test_tracer_event_stores_its_keywords_as_tuples(self):
        tracer = Tracer(TraceConfig())
        tracer.bind_clock(lambda: 1.0)
        tracer.event("x", category="net", node="a", b=1, a=2)
        tracer.event("y", category="net")
        first, second = tracer.events
        assert (first.keys, first.values) == (("b", "a"), (1, 2))
        assert (second.keys, second.values) == ((), ())
        assert first.attrs == {"b": 1, "a": 2} and second.attrs == {}
