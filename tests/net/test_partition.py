"""Unit tests for partition and loss injection."""

import random

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.net import ConstantLatency, Host, Network, PartitionController
from repro.sim import Simulator
from tests.chains.helpers import deploy
from tests.net.test_network import Recorder


@pytest.fixture()
def rig():
    sim = Simulator(seed=1)
    network = Network(sim, default_latency=ConstantLatency(0.001))
    nodes = []
    for index in range(3):
        node = Recorder(f"n{index}", sim)
        network.attach(node, Host(f"s{index}"))
        nodes.append(node)
    return sim, network, nodes


class TestPartitionController:
    def test_allows_by_default(self):
        controller = PartitionController()
        assert controller.allows("a", "b", random.Random(1))

    def test_block_and_unblock_is_bidirectional(self):
        controller = PartitionController()
        rng = random.Random(1)
        controller.block("a", "b")
        assert not controller.allows("a", "b", rng)
        assert not controller.allows("b", "a", rng)
        controller.unblock("a", "b")
        assert controller.allows("a", "b", rng)

    def test_isolate(self):
        controller = PartitionController()
        rng = random.Random(1)
        controller.isolate("a")
        assert not controller.allows("a", "b", rng)
        assert not controller.allows("c", "a", rng)
        assert controller.allows("b", "c", rng)
        controller.heal_endpoint("a")
        assert controller.allows("a", "b", rng)

    def test_group_partition_and_heal(self):
        controller = PartitionController()
        rng = random.Random(1)
        controller.partition(["a", "b"], ["c"])
        assert not controller.allows("a", "c", rng)
        assert not controller.allows("c", "b", rng)
        assert controller.allows("a", "b", rng)
        controller.heal_all()
        assert controller.allows("a", "c", rng)

    def test_unblock_restores_both_directions(self):
        controller = PartitionController()
        rng = random.Random(1)
        controller.block("a", "b")
        controller.unblock("b", "a")  # argument order must not matter
        assert controller.allows("a", "b", rng)
        assert controller.allows("b", "a", rng)

    def test_heal_endpoint_leaves_other_isolations_intact(self):
        controller = PartitionController()
        rng = random.Random(1)
        controller.isolate("a")
        controller.isolate("b")
        controller.heal_endpoint("a")
        assert controller.allows("a", "c", rng)
        assert not controller.allows("b", "c", rng)
        assert not controller.allows("a", "b", rng)  # b still isolated

    def test_heal_endpoint_does_not_lift_pair_blocks(self):
        controller = PartitionController()
        rng = random.Random(1)
        controller.block("a", "b")
        controller.isolate("a")
        controller.heal_endpoint("a")
        assert not controller.allows("a", "b", rng)
        assert controller.allows("a", "c", rng)

    def test_unblock_and_heal_are_idempotent(self):
        controller = PartitionController()
        rng = random.Random(1)
        controller.unblock("a", "b")  # never blocked
        controller.heal_endpoint("x")  # never isolated
        controller.heal_all()  # nothing to heal
        assert controller.allows("a", "b", rng)

    def test_drop_probability(self):
        controller = PartitionController()
        controller.drop_probability = 0.5
        rng = random.Random(42)
        outcomes = [controller.allows("a", "b", rng) for __ in range(1000)]
        dropped = outcomes.count(False)
        assert 400 < dropped < 600

    def test_drop_decisions_are_seed_deterministic(self):
        def run(seed):
            controller = PartitionController()
            controller.drop_probability = 0.3
            rng = random.Random(seed)
            return [controller.allows("a", "b", rng) for __ in range(200)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_heal_all_keeps_drop_probability(self):
        controller = PartitionController()
        controller.drop_probability = 1.0
        controller.heal_all()
        assert not controller.allows("a", "b", random.Random(1))


class TestNetworkIntegration:
    def test_blocked_messages_are_dropped(self, rig):
        sim, network, nodes = rig
        network.partitions.block("n0", "n1")
        nodes[0].send("n1", "blocked")
        nodes[0].send("n2", "open")
        sim.run()
        assert nodes[1].received == []
        assert len(nodes[2].received) == 1
        assert network.messages_dropped == 1

    def test_heal_restores_delivery(self, rig):
        sim, network, nodes = rig
        network.partitions.isolate("n1")
        nodes[0].send("n1", "lost")
        sim.run()
        network.partitions.heal_all()
        nodes[0].send("n1", "delivered")
        sim.run()
        assert [kind for __, kind, __ in nodes[1].received] == ["delivered"]

    def test_lossy_network_drops_and_counts_messages(self, rig):
        sim, network, nodes = rig
        network.partitions.drop_probability = 0.5
        for index in range(100):
            nodes[0].send("n1", f"m{index}")
        sim.run()
        assert 0 < network.messages_dropped < 100
        assert len(nodes[1].received) == 100 - network.messages_dropped


class TestImpairedFlag:
    """``impaired`` follows every change, so the network can skip the
    per-message check while nothing is configured."""

    def test_fresh_controller_is_unimpaired(self):
        assert not PartitionController().impaired

    def test_isolate_and_heal_endpoint(self):
        controller = PartitionController()
        controller.isolate("a")
        controller.isolate("b")
        assert controller.impaired
        controller.heal_endpoint("a")
        assert controller.impaired
        controller.heal_endpoint("b")
        assert not controller.impaired

    def test_block_and_unblock(self):
        controller = PartitionController()
        controller.block("a", "b")
        assert controller.impaired
        controller.unblock("b", "a")
        assert not controller.impaired

    def test_partition_and_heal_all(self):
        controller = PartitionController()
        controller.partition(["a", "b"], ["c"])
        assert controller.impaired
        controller.heal_all()
        assert not controller.impaired

    def test_empty_partition_stays_unimpaired(self):
        controller = PartitionController()
        controller.partition(["a"], [])
        assert not controller.impaired

    def test_set_loss_and_clear_loss(self):
        controller = PartitionController()
        controller.set_loss("a", "b", 0.5)
        assert controller.impaired
        controller.clear_loss("b", "a")
        assert not controller.impaired
        controller.set_loss("a", "b", 0.5)
        controller.set_loss("a", "b", 0.0)  # a zero rate clears the pair
        assert not controller.impaired

    def test_drop_probability_writes(self):
        controller = PartitionController()
        controller.drop_probability = 0.25
        assert controller.impaired and controller.drop_probability == 0.25
        controller.drop_probability = 0.0
        assert not controller.impaired and controller.drop_probability == 0.0

    def test_heal_all_keeps_loss(self):
        controller = PartitionController()
        controller.isolate("a")
        controller.set_loss("b", "c", 0.5)
        controller.heal_all()
        assert controller.impaired
        controller.clear_loss("b", "c")
        assert not controller.impaired

    def test_removing_one_cause_keeps_the_others(self):
        controller = PartitionController()
        controller.isolate("a")
        controller.block("b", "c")
        controller.set_loss("d", "e", 0.1)
        controller.drop_probability = 0.1
        for undo in (
            lambda: controller.heal_endpoint("a"),
            lambda: controller.unblock("b", "c"),
            lambda: controller.clear_loss("d", "e"),
        ):
            undo()
            assert controller.impaired
        controller.drop_probability = 0.0
        assert not controller.impaired

    def test_loss_burst_restore_clears_the_flag(self):
        sim, system, __ = deploy("quorum")
        injector = FaultInjector(
            sim, system, FaultPlan().loss_burst(probability=0.4, duration=1.0, at=1.0)
        )
        injector.install()
        partitions = system.network.partitions
        assert not partitions.impaired
        sim.run(until=1.5)
        assert partitions.impaired
        sim.run(until=2.5)
        assert partitions.drop_probability == 0.0
        assert not partitions.impaired


class TestHealedNetworkDrawsNothing:
    """Once every impairment is undone, sends leave the ``network:``
    stream exactly where it was."""

    @pytest.mark.parametrize("impair, heal", [
        (lambda p: p.isolate("n1"), lambda p: p.heal_endpoint("n1")),
        (lambda p: p.block("n0", "n1"), lambda p: p.unblock("n0", "n1")),
        (lambda p: p.partition(["n0"], ["n1", "n2"]), lambda p: p.heal_all()),
        (lambda p: p.set_loss("n0", "n1", 0.5), lambda p: p.clear_loss("n0", "n1")),
        (lambda p: setattr(p, "drop_probability", 0.5),
         lambda p: setattr(p, "drop_probability", 0.0)),
    ], ids=["isolate", "block", "partition", "set_loss", "drop_probability"])
    def test_no_draw_after_heal(self, rig, impair, heal):
        sim, network, nodes = rig
        impair(network.partitions)
        for index in range(20):
            nodes[0].send("n1", f"impaired{index}")
        sim.run()
        heal(network.partitions)
        state = network._rng.getstate()
        for index in range(20):
            nodes[0].send("n1", f"healed{index}")
            nodes[2].send("n0", f"healed{index}")
        sim.run()
        assert network._rng.getstate() == state
        assert len(nodes[1].received) >= 20
