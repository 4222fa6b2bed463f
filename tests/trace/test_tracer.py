"""Unit tests for the Tracer core: spans, filtering, sampling, no-op path."""

import pytest

from repro.sim import Simulator
from repro.trace import NOOP_TRACER, NoopTracer, TraceConfig, Tracer
from repro.trace.tracer import _NULL_SPAN


def make_tracer(**kwargs) -> Tracer:
    tracer = Tracer(TraceConfig(**kwargs))
    tracer.bind_clock(lambda: 0.0)
    return tracer


class TestLexicalSpans:
    def test_span_captures_simulated_time(self):
        sim = Simulator()
        tracer = Tracer(TraceConfig())
        sim.set_tracer(tracer)

        def body():
            with tracer.span("work", category="sim", step=1):
                sim.now = 2.5  # the clock is the simulator's

        sim.schedule(1.0, body)
        sim.run()
        (span,) = [s for s in tracer.spans if s.name == "work"]
        assert span.start == 1.0
        assert span.end == 2.5
        assert span.duration == pytest.approx(1.5)
        assert span.attrs["step"] == 1
        assert span.attrs["wall_us"] >= 0

    def test_span_set_attaches_attributes(self):
        tracer = make_tracer()
        with tracer.span("work", category="sim") as span:
            span.set(result="ok")
        assert tracer.spans[0].attrs["result"] == "ok"

    def test_nested_spans_both_recorded(self):
        clock = [0.0]
        tracer = Tracer(TraceConfig())
        tracer.bind_clock(lambda: clock[0])
        with tracer.span("outer", category="sim"):
            clock[0] = 1.0
            with tracer.span("inner", category="sim"):
                clock[0] = 2.0
            clock[0] = 4.0
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].duration == pytest.approx(1.0)
        assert by_name["outer"].duration == pytest.approx(4.0)
        # Inner closes first: list order is completion order.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]


class TestKeyedSpans:
    def test_begin_end_records_interval(self):
        clock = [1.0]
        tracer = Tracer(TraceConfig())
        tracer.bind_clock(lambda: clock[0])
        tracer.begin(("tx", "p1"), "tx", category="client", node="c0", phase="Set")
        clock[0] = 3.0
        tracer.end(("tx", "p1"), status="received")
        (span,) = tracer.spans
        assert (span.name, span.node, span.start, span.end) == ("tx", "c0", 1.0, 3.0)
        assert span.attrs == {"phase": "Set", "status": "received"}

    def test_end_of_unknown_key_is_noop(self):
        tracer = make_tracer()
        tracer.end(("never", "opened"))
        assert tracer.spans == []

    def test_double_begin_keeps_first_open(self):
        clock = [0.0]
        tracer = Tracer(TraceConfig())
        tracer.bind_clock(lambda: clock[0])
        tracer.begin("k", "first", category="client")
        clock[0] = 1.0
        tracer.begin("k", "second", category="client")
        clock[0] = 2.0
        tracer.end("k")
        (span,) = tracer.spans
        assert span.name == "first"
        assert span.start == 0.0

    def test_explicit_timestamps(self):
        tracer = make_tracer()
        tracer.begin("k", "s", category="net", at=5.0)
        tracer.end("k", at=7.5)
        assert tracer.spans[0].start == 5.0
        assert tracer.spans[0].end == 7.5

    def test_attrs_may_shadow_parameter_names(self):
        # Regression: stage_finality passes an attribute literally named
        # "key"; the record methods take their positional parameters
        # positional-only so such attrs cannot collide.
        tracer = make_tracer()
        tracer.begin("k", "block.finality", category="chain", key="prop1", name="x")
        tracer.end("k", key="prop2")
        (span,) = tracer.spans
        assert span.attrs["key"] == "prop2"
        assert span.attrs["name"] == "x"
        tracer.event("e", category="net", name="shadowed")
        assert tracer.events[0].attrs["name"] == "shadowed"

    def test_drain_open_closes_and_flags(self):
        tracer = make_tracer()
        tracer.begin("a", "tx", category="client")
        tracer.begin("b", "tx", category="client")
        assert tracer.open_span_count() == 2
        closed = tracer.drain_open(at=9.0, incomplete=True)
        assert closed == 2
        assert tracer.open_span_count() == 0
        assert all(s.end == 9.0 and s.attrs["incomplete"] for s in tracer.spans)


class TestFiltering:
    def test_category_filter_drops_other_categories(self):
        tracer = make_tracer(categories=frozenset({"net"}))
        tracer.event("kept", category="net")
        tracer.event("dropped", category="consensus")
        tracer.begin("k", "dropped-span", category="client")
        tracer.end("k")
        tracer.record_span("dropped-rec", category="sim", start=0.0, end=1.0)
        assert [e.name for e in tracer.events] == ["kept"]
        assert tracer.spans == []

    def test_filtered_lexical_span_returns_shared_null(self):
        tracer = make_tracer(categories=frozenset({"net"}))
        assert tracer.span("x", category="sim") is _NULL_SPAN
        assert tracer.span("y", category="client") is _NULL_SPAN

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            TraceConfig(categories=frozenset({"nope"}))

    def test_from_spec_parses_csv(self):
        config = TraceConfig.from_spec("net, consensus")
        assert config.categories == frozenset({"net", "consensus"})
        assert TraceConfig.from_spec(None).categories is None

    def test_max_records_counts_drops(self):
        tracer = Tracer(TraceConfig(max_records=2))
        tracer.bind_clock(lambda: 0.0)
        for i in range(4):
            tracer.event(f"e{i}", category="net")
            tracer.record_span(f"s{i}", category="net", start=0.0, end=1.0)
        assert len(tracer.events) == 2
        assert len(tracer.spans) == 2
        assert tracer.dropped_records == 4


class TestSampling:
    def test_sampling_is_deterministic(self):
        config = TraceConfig(sample_rate=0.5)
        keys = [f"payload-{i}" for i in range(2000)]
        first = [config.sampled(k) for k in keys]
        second = [config.sampled(k) for k in keys]
        assert first == second

    def test_sampling_rate_is_approximately_honoured(self):
        config = TraceConfig(sample_rate=0.25)
        keys = [f"payload-{i}" for i in range(4000)]
        kept = sum(config.sampled(k) for k in keys)
        assert 800 < kept < 1200

    def test_edge_rates(self):
        assert TraceConfig(sample_rate=1.0).sampled("anything")
        assert not TraceConfig(sample_rate=0.0).sampled("anything")
        with pytest.raises(ValueError):
            TraceConfig(sample_rate=1.5)


class TestNoopFastPath:
    def test_simulator_default_is_shared_noop(self):
        assert Simulator().tracer is NOOP_TRACER
        assert Simulator().tracer is Simulator().tracer

    def test_noop_is_disabled_and_filters_everything(self):
        assert NOOP_TRACER.enabled is False
        assert NOOP_TRACER.metrics is None
        assert not NOOP_TRACER.wants("net")
        assert not NOOP_TRACER.sampled("p1")

    def test_noop_methods_record_nothing_and_share_null_span(self):
        tracer = NoopTracer()
        assert tracer.span("x", category="sim") is _NULL_SPAN
        with tracer.span("x", category="sim") as span:
            span.set(ignored=True)
        tracer.begin("k", "s", category="net", key="attr")
        tracer.end("k")
        tracer.event("e", category="net")
        tracer.record_span("s", category="net", start=0.0, end=1.0)
        tracer.bind_clock(lambda: 1.0)

    def test_enabled_guard_matches_live_tracer(self):
        # The hooks all branch on `tracer.enabled`; the two classes must
        # disagree on it.
        assert Tracer(TraceConfig()).enabled is True
        assert NoopTracer().enabled is False
