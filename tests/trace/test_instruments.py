"""The bound trace path: :class:`~repro.trace.tracer.Instruments`.

Hot hooks resolve their category filter and instruments once per
tracer, append events through :meth:`BoundInstruments.event`, and must
record exactly what :meth:`Tracer.event` and the registry lookups they
replaced recorded: the same ``max_records`` bound, nothing for an
unwanted category or a disabled tracer, and nothing on a tracer that
has been replaced.
"""

import pytest

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.net.host import Host
from repro.net.latency import ConstantLatency
from repro.net.network import Endpoint, Message, Network
from repro.sim import Simulator
from repro.trace.config import CATEGORIES, TraceConfig
from repro.trace.tracer import Instruments, Tracer


class Sink(Endpoint):
    def __init__(self, endpoint_id):
        super().__init__(endpoint_id)
        self.received = 0

    def on_message(self, message):
        self.received += 1


def rig(tracer=None):
    sim = Simulator(seed=1)
    if tracer is not None:
        sim.set_tracer(tracer)
    network = Network(sim, default_latency=ConstantLatency(0.010))
    sinks = [Sink("a"), Sink("b")]
    for sink, host in zip(sinks, (Host("h1"), Host("h2"))):
        network.attach(sink, host)
    return sim, network, sinks


def send(network, count):
    for __ in range(count):
        network.send(Message("a", "b", "ping", size_bytes=100))


def metric_names(tracer):
    snapshot = tracer.metrics.snapshot()
    return {key for kind in snapshot.values() for key in kind}


class TestBoundEvents:
    def test_max_records_caps_events_and_counts_each_drop(self):
        tracer = Tracer(TraceConfig(max_records=7))
        sim, network, __ = rig(tracer)
        send(network, 5)  # 5 sends, then 5 deliveries: 10 net records
        sim.run()
        assert len(tracer.events) == 7
        assert [e.name for e in tracer.events] == ["net.send"] * 5 + ["net.deliver"] * 2
        assert tracer.dropped_records == 3
        # Tracer.event counts a record past the cap the same way.
        tracer.event("late", category="net")
        assert tracer.dropped_records == 4
        # Metrics are not records: every message still counts.
        assert tracer.metrics.counter("net.sent", system="net").value == 5
        assert tracer.metrics.histogram("net.latency", system="net").total == 5

    def test_bound_event_matches_tracer_event(self):
        tracer = Tracer(TraceConfig())
        tracer.bind_clock(lambda: 2.5)
        bound = Instruments("net").bind(tracer)
        bound.event("net.send", "a", ("dst", "size"), ("b", 3))
        tracer.event("net.send", category="net", node="a", dst="b", size=3)
        first, second = tracer.events
        assert first.to_dict() == second.to_dict()

    def test_an_excluded_category_creates_no_record_or_instrument(self):
        tracer = Tracer(TraceConfig.from_spec("consensus,client"))
        sim, network, sinks = rig(tracer)
        send(network, 3)
        sim.run()
        assert sinks[1].received == 3
        assert tracer.events == [] and tracer.dropped_records == 0
        assert not any(name.startswith("net") for name in metric_names(tracer))


class TestRebinding:
    def test_a_second_tracer_gets_the_records_after_the_swap_only(self):
        first, second = Tracer(TraceConfig()), Tracer(TraceConfig())
        sim, network, __ = rig(first)
        send(network, 2)
        sim.run(until=0.005)  # both still in flight
        sim.set_tracer(second)
        send(network, 1)
        sim.run()
        assert [e.name for e in first.events] == ["net.send"] * 2
        assert [e.name for e in second.events] == ["net.send"] + ["net.deliver"] * 3
        assert first.metrics.counter("net.sent", system="net").value == 2
        assert "net/net.latency" not in first.metrics.snapshot()["histograms"]
        assert second.metrics.counter("net.sent", system="net").value == 1
        assert second.metrics.histogram("net.latency", system="net").total == 3

    def test_bind_caches_per_tracer(self):
        hooks = Instruments("net", sent=("counter", "net.sent", "net", ""))
        first, second = Tracer(TraceConfig()), Tracer(TraceConfig())
        bound = hooks.bind(first)
        assert hooks.bind(first) is bound
        assert hooks.bind(second) is not bound
        assert hooks.bind(second).tracer is second


class TestDisabled:
    def test_a_disabled_tracer_creates_nothing(self):
        tracer = Tracer(TraceConfig())
        tracer.enabled = False
        sim, network, sinks = rig(tracer)
        send(network, 3)
        sim.run()
        assert sinks[1].received == 3
        assert tracer.events == [] and tracer.spans == []
        assert len(tracer.metrics) == 0
        assert network._trace._bound is None  # never bound

    def test_undeclared_instrument_is_an_attribute_error(self):
        bound = Instruments("net").bind(Tracer(TraceConfig()))
        with pytest.raises(AttributeError):
            bound.missing  # noqa: B018


#: The metric prefix each bound hook category records under.
PREFIXES = {"net": "net.", "iel": "iel.", "storage": "storage.",
            "client": "client.", "consensus": "consensus."}


@pytest.mark.parametrize("category", sorted(PREFIXES))
def test_every_hot_site_honours_its_category(category):
    """A small Quorum unit (whose replicas execute every block) traced
    without ``category``: its records and instruments are all absent,
    while every other hot site still records."""
    config = BenchmarkConfig(system="quorum", iel="KeyValue", rate_limit=20,
                             scale=0.02, seed=1, phases=("Set",), repetitions=1)
    kept = frozenset(CATEGORIES) - {category}
    tracer = Tracer(TraceConfig(categories=kept))
    BenchmarkRunner(tracer=tracer).run(config)
    names = {name.rsplit("/", 1)[-1] for name in metric_names(tracer)}
    assert not any(name.startswith(PREFIXES[category]) for name in names)
    assert not any(record.category == category for record in [*tracer.events, *tracer.spans])
    for other, prefix in PREFIXES.items():
        if other != category:
            assert any(name.startswith(prefix) for name in names), other
