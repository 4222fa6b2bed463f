"""Replicated execution runs once per deployment.

The first replica to apply a decided block executes it; every other
replica whose world state has the same lineage replays the recorded
read/write sets. These tests pin that replaying replicas end up exactly
where executing ones do, and that the memo holds nothing it no longer
needs.
"""

import dataclasses

import pytest

from repro.chains.base import BaseNode, BlockProposal
from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.crypto.merkle import MerkleTree
from repro.faults.plan import FaultPlan
from repro.storage import Payload, Transaction, TxStatus
from tests.chains.helpers import deploy

#: system -> (deploy params, simulated seconds to drain every replica).
ORDER_EXECUTE = {
    "quorum": ({}, 40.0),
    "diem": ({}, 40.0),
    "bitshares": ({"block_interval": 1.0}, 40.0),
    "sawtooth": ({}, 60.0),
}


def submit_keyvalue(sim, client, system_name, rounds=12, keys=5):
    """Offer Set/Rmw/Get payloads over ``rounds`` seconds of sim time."""

    def offer(round_index):
        specs = []
        for k in range(keys):
            specs.append(("Set" if round_index % 2 else "Rmw",
                          {"key": f"k{k}", "value": f"{round_index}-{k}"}))
            specs.append(("Get", {"key": f"k{k}"}))
        if system_name == "sawtooth":
            client.submit_batch(specs, "KeyValue")
        else:
            for function, args in specs:
                client.submit_payload("KeyValue", function, **args)

    for round_index in range(rounds):
        sim.schedule(1.0 + round_index, offer, round_index)


def replica_view(node):
    state = node.state
    return (
        state.snapshot_versions(),
        {key: state.get(key) for key in state.keys()},
        state.commit_count,
        node.executed_payloads,
    )


def replaying_nodes(system):
    """Nodes that apply every block through ``apply_payloads``: all of
    them, except Sawtooth builders, which execute while publishing."""
    nodes = list(system.nodes.values())
    if system.name != "sawtooth":
        return nodes
    proposers = {
        block.header.proposer
        for node in nodes for block in node.chain.blocks() if not block.is_empty
    }
    return [node for node in nodes if node.endpoint_id not in proposers]


@pytest.fixture
def outcome_spy(monkeypatch):
    """Every ``apply_payloads`` call as ``(node, proposal, outcome)``."""
    calls = []
    original = BaseNode.apply_payloads

    def spy(self, proposal):
        outcome = original(self, proposal)
        calls.append((self, proposal, outcome))
        return outcome

    monkeypatch.setattr(BaseNode, "apply_payloads", spy)
    return calls


@pytest.mark.parametrize("system_name", sorted(ORDER_EXECUTE))
class TestReplicasAgree:
    def run(self, system_name, force_at=None):
        params, drain = ORDER_EXECUTE[system_name]
        sim, system, client = deploy(system_name, params=params)
        submit_keyvalue(sim, client, system_name)
        forced = None
        if force_at is not None:
            forced = list(system.nodes.values())[-1]
            sim.schedule(force_at, setattr, forced.state, "lineage", None)
        sim.run(until=drain)
        return system, client, forced

    def test_every_replica_matches(self, system_name):
        system, client, __ = self.run(system_name)
        nodes = replaying_nodes(system)
        assert len(nodes) >= 3
        views = [replica_view(node) for node in nodes]
        assert views[0][3] > 0, "nothing executed"
        assert all(view == views[0] for view in views[1:])
        lineages = {node.state.lineage for node in nodes}
        assert len(lineages) == 1 and None not in lineages
        assert any(r.status is TxStatus.COMMITTED for r in client.receipts.values())

    def test_forced_execution_matches_replay(self, system_name):
        system, __, forced = self.run(system_name, force_at=6.0)
        nodes = replaying_nodes(system)
        assert forced in nodes
        assert forced.state.lineage is None
        others = [node for node in nodes if node is not forced]
        assert replica_view(forced) == replica_view(others[0])
        assert all(replica_view(node) == replica_view(others[0]) for node in others)

    def test_memo_empty_after_fault_free_run(self, system_name):
        system, __, __ = self.run(system_name)
        assert system.execution_memo == {}

    def test_outcomes_are_not_aliased(self, system_name, outcome_spy):
        system, __, __ = self.run(system_name)
        by_proposal = {}
        for node, proposal, outcome in outcome_spy:
            by_proposal.setdefault(proposal.proposal_id, []).append(outcome)
        replayed = [outcomes for outcomes in by_proposal.values() if len(outcomes) > 1]
        assert replayed
        for outcomes in replayed:
            assert len({id(outcome) for outcome in outcomes}) == len(outcomes)
            assert all(outcome == outcomes[0] for outcome in outcomes)
            # A replica mutating its dict cannot reach the others.
            outcomes[0].clear()
            assert all(outcome for outcome in outcomes[1:])


class TestBitSharesAtomicDiscards:
    def test_discards_replay_as_discards(self, outcome_spy):
        sim, system, client = deploy("bitshares", params={"block_interval": 1.0})
        client.submit_payload("KeyValue", "Set", key="seed", value="v0")
        sim.run(until=5.0)
        # Get of a missing key fails, so the whole operation list is discarded.
        doomed = client.submit_multiop(
            [("Set", {"key": "lost", "value": "v1"}), ("Get", {"key": "absent"})],
            "KeyValue",
        )
        kept = client.submit_multiop(
            [("Set", {"key": "kept", "value": "v2"}), ("Get", {"key": "seed"})],
            "KeyValue",
        )
        sim.run(until=20.0)
        for payload in doomed:
            assert client.receipts[payload.payload_id].status is TxStatus.DISCARDED
        for payload in kept:
            assert client.receipts[payload.payload_id].status is TxStatus.COMMITTED
        doomed_ids = {payload.payload_id for payload in doomed}
        applied = [
            (node, outcome) for node, __, outcome in outcome_spy
            if doomed_ids <= set(outcome)
        ]
        assert len(applied) == len(system.nodes)
        for node, outcome in applied:
            assert all(outcome[pid][0] is TxStatus.DISCARDED for pid in doomed_ids)
        views = [replica_view(node) for node in system.nodes.values()]
        assert all(view == views[0] for view in views[1:])
        for node in system.nodes.values():
            assert "lost" not in node.state
            assert node.state.get("kept") == "v2"
        assert system.execution_memo == {}


class TestCrashRestart:
    def test_restarted_validator_catches_up_oracle_clean(self):
        config = BenchmarkConfig(
            system="quorum", iel="KeyValue", rate_limit=10, scale=0.4, seed=3,
            repetitions=1,
            fault_plan=FaultPlan().crash("quorum-n2", at=30.0).restart("quorum-n2", at=60.0),
        )
        runner = BenchmarkRunner(check=True, check_level="strict")
        runner.run(config)
        report = runner.last_invariants
        assert report is not None and report.ok, report.render()
        system = runner.last_rig.system
        victim = system.nodes["quorum-n2"]
        peers = [node for node in system.nodes.values() if node is not victim]
        assert victim.executed_payloads > 0
        assert victim.chain.height == peers[0].chain.height
        assert replica_view(victim) == replica_view(peers[0])
        # Caught up by replaying the shared outcomes, not by diverging.
        assert peers[0].state.lineage is not None
        assert victim.state.lineage == peers[0].state.lineage


class TestProposalCaches:
    def proposal(self):
        txs = [
            Transaction.wrap([Payload.create("c", "KeyValue", "Set", {"key": f"k{i}"})],
                             submitter="c")
            for i in range(5)
        ]
        return BlockProposal.cut(txs, created_at=1.0)

    def test_merkle_root_matches_tree(self):
        proposal = self.proposal()
        assert proposal.merkle_root == MerkleTree(proposal.transactions).root

    def test_execution_time_follows_the_profile(self):
        __, system, __ = deploy("quorum")
        node = system.nodes[system.node_ids[0]]
        proposal = self.proposal()
        assert proposal.execution_time(node) == node.execution_time(proposal.transactions)
        node.profile = dataclasses.replace(node.profile, execute_cost=1.0)
        assert proposal.execution_time(node) == node.execution_time(proposal.transactions)
        assert proposal.execution_time(node) == pytest.approx(5 * (1.0 + node.profile.per_tx_overhead))
