"""``Network.drops_by_cause``: every dropped message counted under one cause."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.net import ConstantLatency, Host, Network
from repro.net.network import DROP_CAUSES
from repro.sim import Simulator
from tests.chains.helpers import deploy
from tests.net.test_network import Recorder


@pytest.fixture()
def rig():
    sim = Simulator(seed=1)
    network = Network(sim, default_latency=ConstantLatency(0.001))
    hosts = [Host(f"s{index}") for index in range(3)]
    nodes = []
    for index, host in enumerate(hosts):
        node = Recorder(f"n{index}", sim)
        network.attach(node, host)
        nodes.append(node)
    return sim, network, hosts, nodes


def assert_split_sums(network):
    assert set(network.drops_by_cause) == set(DROP_CAUSES)
    assert sum(network.drops_by_cause.values()) == network.messages_dropped


class TestDropCauses:
    def test_clean_network_drops_nothing(self, rig):
        sim, network, __, nodes = rig
        nodes[0].send("n1", "ok")
        sim.run()
        assert network.drops_by_cause == dict.fromkeys(DROP_CAUSES, 0)
        assert_split_sums(network)

    def test_each_cause_counted_once(self, rig):
        sim, network, hosts, nodes = rig
        hosts[2].fail()
        nodes[0].send("n2", "to a failed host")
        hosts[2].restore()
        network.set_endpoint_down("n2")
        nodes[0].send("n2", "to a crashed endpoint")
        network.set_endpoint_up("n2")
        network.partitions.block("n0", "n1")
        nodes[0].send("n1", "across a cut")
        network.partitions.heal_all()
        network.partitions.drop_probability = 1.0
        nodes[1].send("n2", "lost")
        sim.run()
        assert network.drops_by_cause == {
            "host_down": 1, "endpoint_down": 1, "partition": 1, "loss": 1,
        }
        assert_split_sums(network)

    def test_in_flight_drops_split_by_endpoint_and_host(self, rig):
        sim, network, hosts, nodes = rig
        nodes[0].send("n1", "in flight to an endpoint that crashes")
        nodes[0].send("n2", "in flight to a host that fails")
        network.set_endpoint_down("n1")
        hosts[2].fail()
        sim.run()
        assert network.drops_by_cause["endpoint_down"] == 1
        assert network.drops_by_cause["host_down"] == 1
        assert_split_sums(network)

    @pytest.mark.parametrize(
        "endpoint_down, host_down, cause",
        [
            (False, False, None),
            (True, False, "endpoint_down"),
            (False, True, "host_down"),
            (True, True, "endpoint_down"),  # counted once, the endpoint first
        ],
    )
    def test_in_flight_precedence(self, rig, endpoint_down, host_down, cause):
        sim, network, hosts, nodes = rig
        nodes[0].send("n1", "in flight")
        if endpoint_down:
            network.set_endpoint_down("n1")
        if host_down:
            hosts[1].fail()
        sim.run()
        expected = dict.fromkeys(DROP_CAUSES, 0)
        if cause is not None:
            expected[cause] = 1
        assert network.drops_by_cause == expected
        assert len(nodes[1].received) == (1 if cause is None else 0)
        assert_split_sums(network)

    def test_at_send_the_host_outranks_the_endpoint(self, rig):
        sim, network, hosts, nodes = rig
        network.set_endpoint_down("n1")
        hosts[1].fail()
        nodes[0].send("n1", "to a crashed endpoint on a failed host")
        sim.run()
        assert network.drops_by_cause["host_down"] == 1
        assert network.messages_dropped == 1
        assert_split_sums(network)

    def test_isolation_counts_as_partition_even_when_lossy(self, rig):
        sim, network, __, nodes = rig
        network.partitions.isolate("n1")
        network.partitions.set_loss("n0", "n2", 1.0)
        nodes[0].send("n1", "isolated")
        nodes[0].send("n2", "lossy")
        sim.run()
        assert network.drops_by_cause["partition"] == 1
        assert network.drops_by_cause["loss"] == 1
        assert_split_sums(network)

    def test_broadcast_drops_split_per_destination(self, rig):
        sim, network, __, nodes = rig
        network.partitions.block("n0", "n1")
        network.set_endpoint_down("n2")
        assert network.broadcast("n0", ["n1", "n2"], "fanout") == 2
        sim.run()
        assert network.drops_by_cause["partition"] == 1
        assert network.drops_by_cause["endpoint_down"] == 1
        assert_split_sums(network)


class TestDropCausesUnderFaultPlans:
    def test_crash_plan_drops_are_endpoint_down(self):
        sim, system, __ = deploy("quorum")
        plan = FaultPlan().crash("n2", at=1.0).restart("n2", at=3.0)
        FaultInjector(sim, system, plan).install()
        sim.run(until=4.0)
        network = system.network
        assert network.drops_by_cause["endpoint_down"] > 0
        assert network.drops_by_cause["partition"] == network.drops_by_cause["loss"] == 0
        assert_split_sums(network)

    def test_partition_plan_drops_are_partition(self):
        sim, system, __ = deploy("quorum")
        plan = (
            FaultPlan()
            .partition(["n0", "n1"], ["n2", "n3"], at=1.0)
            .heal_all(at=2.0)
        )
        FaultInjector(sim, system, plan).install()
        sim.run(until=3.0)
        network = system.network
        assert network.drops_by_cause["partition"] > 0
        assert network.drops_by_cause["endpoint_down"] == network.drops_by_cause["host_down"] == 0
        assert_split_sums(network)
