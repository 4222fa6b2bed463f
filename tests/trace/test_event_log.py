"""The tracer's flat event log reads like the list of records it replaced.

:class:`~repro.trace.tracer.EventLog` keeps no object per event: an
event is its shared kind tuple, node, time and values spread into one
list. Every read builds an :class:`~repro.trace.tracer.EventRecord`, and
the log must answer ``len``, indexes, slices, iteration and ``==``
exactly as a list of those records would.
"""

import json

import pytest

from repro.trace.config import TraceConfig
from repro.trace.tracer import EventLog, EventRecord, Instruments, Tracer

_SEND_KEYS = ("dst", "size")


def filled_tracer(count=7):
    """A tracer holding ``count`` events from both write paths, and the
    list of records a list-backed tracer would have held."""
    tracer = Tracer(TraceConfig())
    now = [0.0]
    tracer.bind_clock(lambda: now[0])
    trace = Instruments("net").bind(tracer)
    reference = []
    for index in range(count):
        now[0] = index * 0.5
        node = f"n{index % 3}"
        if index % 2:
            trace.event("net.send", node, _SEND_KEYS, (f"n{index}", index))
            reference.append(EventRecord("net.send", "net", node, now[0], _SEND_KEYS,
                                         (f"n{index}", index)))
        else:
            tracer.event("phase", category="bench", node=node, step=index)
            reference.append(EventRecord("phase", "bench", node, now[0], ("step",), (index,)))
    return tracer, reference


class TestSequence:
    def test_len_indexes_and_iteration_match_a_list(self):
        tracer, reference = filled_tracer()
        log = tracer.events
        assert isinstance(log, EventLog)
        assert len(log) == len(reference) == 7
        for index in range(-len(reference), len(reference)):
            assert log[index] == reference[index]
            assert log[index].to_dict() == reference[index].to_dict()
        assert list(log) == reference
        assert [record.to_dict() for record in log] == [r.to_dict() for r in reference]
        for index in (7, -8):
            with pytest.raises(IndexError):
                log[index]

    @pytest.mark.parametrize("window", [
        slice(None), slice(2, 5), slice(-3, None), slice(None, -2), slice(None, None, 2),
        slice(None, None, -1), slice(5, 1, -2), slice(10, 20), slice(4, 2),
    ])
    def test_slices_are_lists_of_records(self, window):
        tracer, reference = filled_tracer()
        sliced = tracer.events[window]
        assert isinstance(sliced, list)
        assert sliced == reference[window]

    def test_columns_read_node_and_time_in_record_order(self):
        tracer, reference = filled_tracer()
        assert list(tracer.events.nodes()) == [record.node for record in reference]
        assert list(tracer.events.times()) == [record.time for record in reference]

    def test_the_log_is_read_only(self):
        tracer, __ = filled_tracer()
        with pytest.raises(TypeError):
            tracer.events[0] = tracer.events[1]
        assert not hasattr(tracer.events, "clear")


class TestEquality:
    def test_equal_to_a_list_of_equal_records(self):
        tracer, reference = filled_tracer()
        assert tracer.events == reference and reference == tracer.events
        assert tracer.events != reference[:-1]
        assert tracer.events != reference[::-1]
        assert Tracer().events == [] and [] == Tracer().events

    def test_equal_to_another_log_with_equal_records(self):
        first, __ = filled_tracer()
        second, __ = filled_tracer()
        shorter, __ = filled_tracer(count=6)
        assert first.events == second.events
        assert first.events != shorter.events

    def test_other_types_are_not_equal_and_the_log_is_unhashable(self):
        tracer, reference = filled_tracer()
        assert tracer.events != tuple(reference)
        assert tracer.events.__eq__(tuple(reference)) is NotImplemented
        with pytest.raises(TypeError):
            hash(tracer.events)


class TestStoredObjects:
    def test_an_int_clock_exports_an_int_time(self):
        tracer = Tracer(TraceConfig())
        tracer.bind_clock(lambda: 3)
        tracer.event("tick", category="sim", n=1)
        Instruments("sim").bind(tracer).event("tock", "", ("n",), (2,))
        for record in tracer.events:
            assert type(record.to_dict()["time"]) is int
        assert [json.dumps(r.to_dict()["time"]) for r in tracer.events] == ["3", "3"]

    def test_time_and_values_are_the_objects_passed(self):
        tracer = Tracer(TraceConfig())
        stamp, payload = 1.25, object()
        tracer.event("x", category="net", at=stamp, what=payload)
        Instruments("net").bind(tracer).event("y", "a", ("what",), (payload,))
        first, second = tracer.events
        assert first.time is stamp
        assert first.values[0] is payload and second.values[0] is payload
        assert type(first.values) is tuple


class TestWritePaths:
    def test_max_records_caps_tracer_event(self):
        tracer = Tracer(TraceConfig(max_records=2))
        for index in range(5):
            tracer.event("x", category="net", i=index)
        assert [record.attrs for record in tracer.events] == [{"i": 0}, {"i": 1}]
        assert tracer.dropped_records == 3

    def test_max_records_caps_the_bound_hook(self):
        tracer = Tracer(TraceConfig(max_records=2))
        trace = Instruments("net").bind(tracer)
        for index in range(5):
            trace.event("net.send", "a", _SEND_KEYS, ("b", index))
        assert [record.values for record in tracer.events] == [("b", 0), ("b", 1)]
        assert tracer.dropped_records == 3

    def test_both_paths_share_the_cap(self):
        tracer = Tracer(TraceConfig(max_records=3))
        trace = Instruments("net").bind(tracer)
        for index in range(3):
            tracer.event("x", category="net", i=index)
            trace.event("net.send", "a", _SEND_KEYS, ("b", index))
        assert [record.name for record in tracer.events] == ["x", "net.send", "x"]
        assert tracer.dropped_records == 3

    def test_tracer_event_and_a_bound_hook_record_equal_events(self):
        tracer = Tracer(TraceConfig())
        tracer.bind_clock(lambda: 2.5)
        Instruments("net").bind(tracer).event("net.send", "a", _SEND_KEYS, ("b", 3))
        tracer.event("net.send", category="net", node="a", dst="b", size=3)
        hooked, called = tracer.events
        assert hooked == called and hooked.to_dict() == called.to_dict()
        assert repr(hooked) == repr(called)
        # Both paths intern the same (name, category, keys) kind tuple.
        assert hooked.keys is called.keys is _SEND_KEYS

    def test_a_bound_hook_with_new_keys_gets_its_own_kind(self):
        tracer = Tracer(TraceConfig())
        trace = Instruments("net").bind(tracer)
        trace.event("net.send", "a", _SEND_KEYS, ("b", 3))
        trace.event("net.send", "a", ("dst",), ("c",))
        trace.event("net.send", "a", _SEND_KEYS, ("d", 4))
        assert [record.attrs for record in tracer.events] == [
            {"dst": "b", "size": 3}, {"dst": "c"}, {"dst": "d", "size": 4},
        ]
