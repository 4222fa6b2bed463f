"""Unit tests for the Chrome trace-event and JSONL exporters."""

import json

import pytest

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.faults.plan import FaultAction, FaultPlan
from repro.storage.transaction import reset_id_counters
from repro.trace import (
    EventRecord,
    SpanRecord,
    TraceConfig,
    Tracer,
    chrome_trace,
    jsonl_lines,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)


def eager_chrome_trace(tracer: Tracer) -> dict:
    """The reference document: every trace event built first, then
    sorted stably by ``(ts, tid)``, metadata rows (no ``ts``) first."""
    tids = {"": 0}
    for record in [*tracer.spans, *tracer.events]:
        tids.setdefault(record.node, len(tids))
    trace_events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                     "args": {"name": "coconut-sim"}}]
    trace_events.extend({"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                         "args": {"name": node or "(global)"}} for node, tid in tids.items())
    trace_events.extend({"ph": "X", "pid": 1, "tid": tids[span.node], "name": span.name,
                         "cat": span.category, "ts": span.start * 1e6,
                         "dur": max(0.0, span.duration) * 1e6, "args": span.attrs}
                        for span in tracer.spans)
    trace_events.extend({"ph": "i", "s": "t", "pid": 1, "tid": tids[event.node],
                         "name": event.name, "cat": event.category,
                         "ts": event.time * 1e6, "args": event.attrs}
                        for event in tracer.events)
    trace_events.sort(key=lambda e: (e.get("ts", -1.0), e["tid"]))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def eager_jsonl_lines(tracer: Tracer) -> list:
    """The reference export: every record's dict built first, then
    sorted stably by ``(time, kind)``, spans (0) before events (1)."""
    records = [(span.start, 0, span.to_dict()) for span in tracer.spans]
    records.extend((event.time, 1, event.to_dict()) for event in tracer.events)
    records.sort(key=lambda item: item[:2])
    return [record for __, __, record in records] + [
        {"type": "metrics", "metrics": tracer.metrics.snapshot(),
         "dropped_records": tracer.dropped_records}
    ]


def sample_tracer() -> Tracer:
    tracer = Tracer(TraceConfig())
    tracer.bind_clock(lambda: 0.0)
    tracer.record_span("tx", category="client", node="client-0",
                       start=0.5, end=1.25, status="received")
    tracer.record_span("raft.replicate", category="consensus", node="orderer0",
                       start=0.6, end=0.61, index=0)
    tracer.event("net.send", category="net", node="client-0", at=0.5,
                 dst="fabric-n0", size=256)
    tracer.metrics.counter("net.sent", system="fabric").inc(2)
    return tracer


class TestChromeTrace:
    def test_document_structure(self):
        doc = chrome_trace(sample_tracer(), process_name="test-proc")
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_spans_map_to_complete_events_in_microseconds(self):
        doc = chrome_trace(sample_tracer())
        (tx,) = [e for e in doc["traceEvents"] if e.get("name") == "tx"]
        assert tx["ph"] == "X"
        assert tx["cat"] == "client"
        assert tx["ts"] == 0.5e6
        assert tx["dur"] == 0.75e6
        assert tx["args"]["status"] == "received"

    def test_events_map_to_instants(self):
        doc = chrome_trace(sample_tracer())
        (send,) = [e for e in doc["traceEvents"] if e.get("name") == "net.send"]
        assert send["ph"] == "i"
        assert send["s"] == "t"
        assert send["ts"] == 0.5e6

    def test_one_thread_row_per_node_with_names(self):
        doc = chrome_trace(sample_tracer())
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[0] == "(global)"
        assert set(names.values()) == {"(global)", "client-0", "orderer0"}
        (tx,) = [e for e in doc["traceEvents"] if e.get("name") == "tx"]
        assert names[tx["tid"]] == "client-0"

    def test_events_sorted_by_timestamp(self):
        doc = chrome_trace(sample_tracer())
        stamps = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert stamps == sorted(stamps)

    def test_written_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(sample_tracer(), path)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert len(doc["traceEvents"]) > 0

    def test_negative_duration_clamped(self):
        tracer = Tracer(TraceConfig())
        tracer.bind_clock(lambda: 0.0)
        tracer.record_span("odd", category="sim", start=2.0, end=1.0)
        doc = chrome_trace(tracer)
        (odd,) = [e for e in doc["traceEvents"] if e.get("name") == "odd"]
        assert odd["dur"] == 0.0


class TestJsonl:
    def test_lines_are_time_ordered_with_metrics_trailer(self):
        lines = list(jsonl_lines(sample_tracer()))
        assert lines[-1]["type"] == "metrics"
        assert lines[-1]["metrics"]["counters"]["fabric/net.sent"]["value"] == 2
        body = lines[:-1]
        stamps = [r["start"] if r["type"] == "span" else r["time"] for r in body]
        assert stamps == sorted(stamps)
        kinds = {r["type"] for r in body}
        assert kinds == {"span", "event"}

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = sample_tracer()
        write_jsonl(tracer, path)
        loaded = read_jsonl(path)
        assert len(loaded) == len(tracer.spans) + len(tracer.events) + 1
        (tx,) = [r for r in loaded if r.get("name") == "tx"]
        assert tx == {
            "type": "span", "name": "tx", "cat": "client", "node": "client-0",
            "start": 0.5, "end": 1.25, "attrs": {"status": "received"},
        }

    def test_loaded_spans_feed_tracestats(self, tmp_path):
        from repro.analysis.tracestats import span_stats

        path = tmp_path / "trace.jsonl"
        write_jsonl(sample_tracer(), path)
        stats = span_stats(read_jsonl(path))
        assert {s.name for s in stats} == {"tx", "raft.replicate"}

    def test_a_record_dict_is_built_as_it_is_yielded(self, monkeypatch):
        tracer = sample_tracer()
        built = []
        for cls in (SpanRecord, EventRecord):
            to_dict = cls.to_dict
            monkeypatch.setattr(
                cls, "to_dict", lambda record, f=to_dict: built.append(record) or f(record)
            )
        lines = jsonl_lines(tracer)
        next(lines)
        assert len(built) == 1
        assert len(list(lines)) == len(tracer.spans) + len(tracer.events)
        assert len(built) == len(tracer.spans) + len(tracer.events)


@pytest.fixture(scope="module")
def checked_tracer():
    """The trace of the leader-crash Fabric unit under strict oracles:
    over 100,000 events and 10,000 spans, many at shared timestamps."""
    config = BenchmarkConfig(
        system="fabric", iel="KeyValue", rate_limit=10, scale=0.4, seed=3,
        repetitions=1,
        fault_plan=FaultPlan([
            FaultAction.from_dict({"kind": "crash", "at": 30.0, "target": "leader"}),
            FaultAction.from_dict({"kind": "restart", "at": 60.0, "target": "leader"}),
        ]),
    )
    tracer = Tracer(TraceConfig())
    reset_id_counters()
    BenchmarkRunner(check=True, check_level="strict", tracer=tracer).run(config)
    assert len(tracer.events) > 100_000 and len(tracer.spans) > 10_000
    return tracer


class TestStreamedExports:
    """Both exporters build one record's output at a time and must write
    the bytes the eager builds (every dict first, then sort) write."""

    def test_jsonl_matches_the_eager_build(self, checked_tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(checked_tracer, path)
        eager = "".join(
            json.dumps(line, default=str) + "\n" for line in eager_jsonl_lines(checked_tracer)
        )
        assert path.read_text(encoding="utf-8") == eager

    def test_chrome_matches_the_eager_build(self, checked_tracer, tmp_path):
        eager = eager_chrome_trace(checked_tracer)
        assert chrome_trace(checked_tracer) == eager
        path = tmp_path / "trace.json"
        write_chrome_trace(checked_tracer, path)
        assert path.read_text(encoding="utf-8") == json.dumps(eager, default=str)

    def test_an_empty_tracer_writes_the_eager_bytes(self, tmp_path):
        tracer = Tracer(TraceConfig())
        write_chrome_trace(tracer, tmp_path / "trace.json")
        assert (tmp_path / "trace.json").read_text(encoding="utf-8") == json.dumps(
            eager_chrome_trace(tracer), default=str
        )
