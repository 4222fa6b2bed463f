"""The uniform system API every model must satisfy (COCONUT's contract)."""

import pytest

from repro.chains import DeploymentSpec, SYSTEM_NAMES, create_system
from repro.chains.profiles import profile_for
from repro.chains.registry import SYSTEM_LABELS, system_class
from repro.sim import Simulator


@pytest.mark.parametrize("name", SYSTEM_NAMES)
class TestUniformApi:
    def build(self, name):
        sim = Simulator(seed=1)
        system = create_system(name, sim, DeploymentSpec(), "KeyValue")
        return sim, system

    def test_registry_is_consistent(self, name):
        assert system_class(name).name == name
        assert name in SYSTEM_LABELS
        assert profile_for(name).system == name

    def test_deployment_shape(self, name):
        sim, system = self.build(name)
        assert len(system.node_ids) == 4
        assert len(system.server_hosts) == 4  # one node per server (Table 4)
        assert len({system.gateway_for(i) for i in range(4)}) == 4

    def test_stabilization_time_matches_section_4_4(self, name):
        sim, system = self.build(name)
        expected = {"bitshares": 180.0, "quorum": 180.0, "sawtooth": 60.0}
        assert system.stabilization_time == expected.get(name, 0.0)

    def test_start_is_idempotent_per_deployment(self, name):
        sim, system = self.build(name)
        system.start()
        assert system.started

    def test_every_node_has_the_base_equipment(self, name):
        sim, system = self.build(name)
        for node in system.nodes.values():
            assert node.chain.owner == node.endpoint_id
            assert node.iel.name == "KeyValue"
            assert node.cpu.capacity >= 1

    def test_unknown_gateway_subscription_rejected(self, name):
        sim, system = self.build(name)
        with pytest.raises(KeyError):
            system.subscribe("client-x", "no-such-node")

    def test_seven_systems_total(self, name):
        assert len(SYSTEM_NAMES) == 7


def engine_view_of_leader(system):
    """The coordinating endpoint as the engines' own role rules give it,
    read from the first live engine of the deployment."""
    if system.name == "fabric":
        return next(
            orderer_id for orderer_id, orderer in system.orderers.items()
            if orderer.engine.is_leader
        )
    if system.name.startswith("corda"):
        return f"{system.name}-notary0"
    engine = next(
        node.engine for node in system.nodes.values() if not node.engine.stopped
    )
    if system.name == "quorum":
        return engine.proposer_for(engine.height, engine.round)
    if system.name == "diem":
        return engine.leader_for(engine.current_round)
    if system.name == "bitshares":
        return engine.witness_for_slot(int(system.sim.now / engine.block_interval))
    assert system.name == "sawtooth"
    return engine.context.peers[engine.view % engine.context.n]


def run_briefly(name):
    sim = Simulator(seed=1)
    system = create_system(name, sim, DeploymentSpec(), "KeyValue")
    system.start()
    sim.run(until=7.5)
    return system


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_leader_id_matches_the_engines_own_view(name):
    system = run_briefly(name)
    leader = system.leader_id()
    assert leader in system.network.endpoint_ids()
    assert leader == engine_view_of_leader(system)


@pytest.mark.parametrize("name", ["bitshares", "diem", "quorum", "sawtooth"])
def test_leader_id_asks_the_first_live_engine_and_is_none_once_all_stop(name):
    system = run_briefly(name)
    for node in system.nodes.values():
        assert system.leader_id() == engine_view_of_leader(system)
        node.engine.stop()
    assert system.leader_id() is None
