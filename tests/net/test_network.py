"""Unit tests for hosts, links and message routing."""

import pytest

from repro.net import ConstantLatency, Endpoint, Host, Network
from repro.net.host import round_robin_placement
from repro.sim import Simulator


class Recorder(Endpoint):
    """Endpoint that records deliveries with their arrival times."""

    def __init__(self, endpoint_id, sim):
        super().__init__(endpoint_id)
        self.sim = sim
        self.received = []

    def on_message(self, message):
        self.received.append((self.sim.now, message.kind, message.payload))


@pytest.fixture()
def rig():
    sim = Simulator(seed=1)
    network = Network(sim, default_latency=ConstantLatency(0.010))
    host_a, host_b = Host("server-1"), Host("server-2")
    alice, bob = Recorder("alice", sim), Recorder("bob", sim)
    network.attach(alice, host_a)
    network.attach(bob, host_b)
    return sim, network, alice, bob


class TestHost:
    def test_serialization_delay(self):
        host = Host("s", bandwidth_bps=1000)
        assert host.serialization_delay(500) == pytest.approx(0.5)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            Host("s", bandwidth_bps=0)

    def test_duplicate_attach_rejected(self):
        host = Host("s")
        host.attach("n1")
        with pytest.raises(ValueError):
            host.attach("n1")

    def test_round_robin_placement(self):
        hosts = [Host(f"s{i}") for i in range(3)]
        placement = round_robin_placement(hosts, [f"n{i}" for i in range(7)])
        assert placement["n0"].name == "s0"
        assert placement["n3"].name == "s0"
        assert placement["n5"].name == "s2"
        counts = {}
        for host in placement.values():
            counts[host.name] = counts.get(host.name, 0) + 1
        assert counts == {"s0": 3, "s1": 2, "s2": 2}

    def test_round_robin_requires_hosts(self):
        with pytest.raises(ValueError):
            round_robin_placement([], ["n0"])


class TestRouting:
    def test_delivery_after_latency(self, rig):
        sim, network, alice, bob = rig
        alice.send("bob", "ping", payload="hello", size_bytes=0)
        sim.run()
        assert len(bob.received) == 1
        at, kind, payload = bob.received[0]
        assert kind == "ping"
        assert payload == "hello"
        assert at == pytest.approx(0.010)

    def test_serialization_adds_delay(self, rig):
        sim, network, alice, bob = rig
        big = 125_000_000  # 1 second at 1 Gbit/s
        alice.send("bob", "bulk", size_bytes=big)
        sim.run()
        assert bob.received[0][0] == pytest.approx(1.010)

    def test_unknown_destination_raises(self, rig):
        __, network, alice, __ = rig
        with pytest.raises(KeyError):
            alice.send("nobody", "ping")

    def test_duplicate_endpoint_id_rejected(self, rig):
        sim, network, __, __ = rig
        with pytest.raises(ValueError):
            network.attach(Recorder("alice", sim), Host("server-3"))

    def test_same_host_uses_loopback(self):
        sim = Simulator(seed=1)
        network = Network(sim, default_latency=ConstantLatency(0.010))
        host = Host("server-1")
        a, b = Recorder("a", sim), Recorder("b", sim)
        network.attach(a, host)
        network.attach(b, host)
        a.send("b", "local", size_bytes=0)
        sim.run()
        assert b.received[0][0] < 0.001  # loopback, not the 10 ms default

    def test_fifo_per_pair_despite_jitter(self):
        # With jittered latency, later messages must still arrive after
        # earlier ones on the same directed pair.
        from repro.net import NetemLatency

        sim = Simulator(seed=7)
        network = Network(sim, default_latency=NetemLatency(mean=0.012, jitter=0.011))
        network.attach((a := Recorder("a", sim)), Host("s1"))
        network.attach((b := Recorder("b", sim)), Host("s2"))
        for i in range(200):
            a.send("b", "seq", payload=i, size_bytes=0)
        sim.run()
        received_order = [payload for __, __, payload in b.received]
        assert received_order == list(range(200))

    def test_broadcast_excludes_sender(self, rig):
        sim, network, alice, bob = rig
        count = network.broadcast("alice", ["alice", "bob"], "gossip", payload=1)
        sim.run()
        assert count == 1
        assert len(bob.received) == 1
        assert len(alice.received) == 0

    def test_message_counters(self, rig):
        sim, network, alice, bob = rig
        alice.send("bob", "one")
        alice.send("bob", "two")
        sim.run()
        assert network.messages_sent == 2
        assert network.messages_dropped == 0


class TestBroadcastAtomicity:
    def test_unknown_destination_fails_before_any_send(self, rig):
        sim, network, alice, bob = rig
        with pytest.raises(KeyError, match="nobody"):
            network.broadcast("alice", ["bob", "nobody", "alice"], "gossip")
        # Atomic: the typo'd peer list sent nothing, not a partial fan-out.
        assert network.messages_sent == 0
        sim.run()
        assert bob.received == []

    def test_generator_destinations_are_validated(self, rig):
        sim, network, alice, bob = rig
        with pytest.raises(KeyError):
            network.broadcast("alice", (d for d in ["bob", "ghost"]), "gossip")
        assert network.messages_sent == 0


class TestDeliverySideTrace:
    def _traced_rig(self):
        from repro.trace.config import TraceConfig
        from repro.trace.tracer import Tracer

        sim = Simulator(seed=1)
        tracer = Tracer(TraceConfig())
        sim.set_tracer(tracer)
        network = Network(sim, default_latency=ConstantLatency(0.010))
        alice, bob = Recorder("alice", sim), Recorder("bob", sim)
        network.attach(alice, Host("server-1"))
        network.attach(bob, Host("server-2"))
        return sim, tracer, network, alice, bob

    def test_delivered_message_emits_deliver_event(self):
        sim, tracer, network, alice, bob = self._traced_rig()
        alice.send("bob", "ping", size_bytes=0)
        sim.run()
        names = [event.name for event in tracer.events]
        assert names.count("net.send") == 1
        assert names.count("net.deliver") == 1
        assert tracer.metrics.histogram("net.latency", system="net").total == 1

    def test_in_flight_message_to_crashed_endpoint_never_appears_delivered(self):
        sim, tracer, network, alice, bob = self._traced_rig()
        alice.send("bob", "ping", size_bytes=0)
        # Crash bob while the message is in flight: it was sent, but it
        # must be dropped — and traced as dropped — at delivery time.
        sim.schedule(0.005, lambda: network.set_endpoint_down("bob"))
        sim.run()
        assert bob.received == []
        assert network.messages_dropped == 1
        names = [event.name for event in tracer.events]
        assert names.count("net.send") == 1
        assert names.count("net.deliver") == 0
        assert names.count("net.drop") == 1
        # The latency histogram counts deliveries, so it agrees with the
        # deliver events rather than the sends.
        assert tracer.metrics.histogram("net.latency", system="net").total == 0

    def test_undelivered_message_at_run_bound_not_recorded(self):
        sim, tracer, network, alice, bob = self._traced_rig()
        alice.send("bob", "ping", size_bytes=0)
        sim.run(until=0.001)  # delivery is at 0.010, still in flight
        names = [event.name for event in tracer.events]
        assert names.count("net.send") == 1
        assert names.count("net.deliver") == 0
        assert tracer.metrics.histogram("net.latency", system="net").total == 0
