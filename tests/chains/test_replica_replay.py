"""Replicated execution runs once per deployment.

The first replica to apply a decided block executes (or, on a Fabric
peer, validates) it; every other replica whose world state has the same
lineage replays the recorded block diff. These tests pin that replaying
replicas end up exactly where executing ones do, that the memo holds
nothing it no longer needs, and that the host work really runs once.
"""

import dataclasses
import random

import pytest

from repro.chains.base import BaseNode, BlockProposal
from repro.chains.fabric import FabricPeer
from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.crypto import hashing
from repro.crypto.merkle import MerkleTree
from repro.faults.plan import FaultPlan
from repro.storage import Payload, Transaction, TxStatus, WorldState
from repro.storage import transaction as transaction_module
from repro.workloads.access import ZipfianSampler
from tests.chains.helpers import deploy

#: system -> (deploy params, simulated seconds to drain every replica).
REPLICATED = {
    "quorum": ({}, 40.0),
    "diem": ({}, 40.0),
    "bitshares": ({"block_interval": 1.0}, 40.0),
    "sawtooth": ({}, 60.0),
    "fabric": ({}, 40.0),
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
        list(state.keys()),
        state.snapshot_versions(),
        {key: state.get(key) for key in state.keys()},
        state.commit_count,
        state.invalidated_count,
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
    """Every block application (``apply_payloads``, or a Fabric peer's
    ``validate_block``) as ``(node, proposal, outcome)``."""
    calls = []

    def spying(original):
        def spy(self, proposal):
            outcome = original(self, proposal)
            calls.append((self, proposal, outcome))
            return outcome
        return spy

    monkeypatch.setattr(BaseNode, "apply_payloads", spying(BaseNode.apply_payloads))
    monkeypatch.setattr(FabricPeer, "validate_block", spying(FabricPeer.validate_block))
    return calls


@pytest.mark.parametrize("system_name", sorted(REPLICATED))
class TestReplicasAgree:
    def run(self, system_name, force_at=None):
        params, drain = REPLICATED[system_name]
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


class TestFabricMvccReplay:
    def test_zipfian_rmw_invalidations_match_a_validating_peer(self, outcome_spy):
        sim, system, client = deploy("fabric")
        forced = system.nodes[system.node_ids[-1]]
        forced.state.lineage = None
        sampler, rng = ZipfianSampler(theta=0.99), random.Random(11)

        def offer(round_index):
            for i in range(40):
                key = f"k{sampler.sample(rng, 30)}"
                client.submit_payload("KeyValue", "Rmw", key=key, value=f"{round_index}-{i}")

        for round_index in range(8):
            sim.schedule(1.0 + 0.5 * round_index, offer, round_index)
        sim.run(until=30.0)
        others = [node for node in system.nodes.values() if node is not forced]
        assert forced.state.lineage is None
        assert forced.state.invalidated_count > 0
        for node in others:
            assert replica_view(node) == replica_view(forced)
        by_node = {}
        for node, proposal, outcome in outcome_spy:
            by_node.setdefault(node.endpoint_id, []).append((proposal.proposal_id, outcome))
        assert len(by_node) == len(system.nodes)
        invalidated = [
            pid for __, outcome in by_node[forced.endpoint_id]
            for pid, (status, __) in outcome.items() if status is TxStatus.INVALIDATED
        ]
        assert invalidated
        for node in others:
            assert by_node[node.endpoint_id] == by_node[forced.endpoint_id]


class TestCrashWithoutRestart:
    @pytest.mark.parametrize("system_name", sorted(REPLICATED))
    def test_crashed_replica_pins_no_memo_entry(self, system_name):
        config = BenchmarkConfig(
            system=system_name, iel="KeyValue", rate_limit=100, scale=0.1, seed=3,
            repetitions=1, fault_plan=FaultPlan().crash(f"{system_name}-n2", at=1.0),
        )
        runner = BenchmarkRunner()
        runner.run(config)
        system = runner.last_rig.system
        live = [node for node in system.nodes.values() if node.endpoint_id != f"{system_name}-n2"]
        assert max(node.chain.height for node in live) > system.nodes[f"{system_name}-n2"].chain.height
        assert system.execution_memo == {}


class TestWorkRunsOncePerDeployment:
    """Exact counts that a revert of encode-once, replay-per-block or
    lazy sealing would break."""

    @pytest.mark.parametrize("system_name, node_count", [("quorum", 8), ("fabric", 4)])
    def test_apply_once_per_transaction_and_no_generic_tx_encoding(
        self, system_name, node_count, outcome_spy, monkeypatch
    ):
        applies = []
        original_apply = WorldState.apply

        def counting_apply(self, rwset):
            applies.append(rwset)
            return original_apply(self, rwset)

        # Every generic encoding, at any depth and whichever public
        # function started it, passes through hashing._encode.
        encoded = set()
        original_encode = hashing._encode

        def recording_encode(value, out):
            encoded.add(type(value))
            return original_encode(value, out)

        # Every transaction digest goes through tuple_digest.
        digested = []
        original_digest = transaction_module.tuple_digest

        def recording_digest(value):
            digested.append(value)
            return original_digest(value)

        monkeypatch.setattr(WorldState, "apply", counting_apply)
        monkeypatch.setattr(hashing, "_encode", recording_encode)
        monkeypatch.setattr(transaction_module, "tuple_digest", recording_digest)
        config = BenchmarkConfig(
            system=system_name, iel="KeyValue", rate_limit=50, scale=0.05, seed=3,
            repetitions=1, node_count=node_count,
        )
        runner = BenchmarkRunner()
        runner.run(config)
        system = runner.last_rig.system

        first_outcome = {}
        for __, proposal, outcome in outcome_spy:
            first_outcome.setdefault(proposal.proposal_id, (proposal, outcome))
        applied = sum(
            1
            for proposal, outcome in first_outcome.values()
            for tx in proposal.transactions
            if outcome[tx.payloads[0].payload_id][0] is not TxStatus.DISCARDED
        )
        assert applied > 0
        assert len(outcome_spy) == node_count * len(first_outcome)
        assert len(applies) == applied
        assert all(node.state.lineage is not None for node in system.nodes.values())

        # The unchecked run read no block hash, so nothing was digested.
        committed = {
            id(tx): tx
            for node in system.nodes.values()
            for block in node.chain.blocks()
            for tx in block.transactions
        }
        assert committed
        assert all(tx._digest is None for tx in committed.values())
        assert digested == [] and encoded == set()

        # Validation digests each committed transaction exactly once,
        # directly; only the block headers go through the generic encoder.
        system.validate_all_chains()
        assert sorted(map(id, digested)) == sorted(committed)
        assert all(tx._digest is not None for tx in committed.values())
        assert encoded and Transaction not in encoded and Payload not in encoded


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
        assert proposal.root.value == MerkleTree(proposal.transactions).root

    def test_execution_time_follows_the_profile(self):
        __, system, __ = deploy("quorum")
        node = system.nodes[system.node_ids[0]]
        proposal = self.proposal()
        assert proposal.execution_time(node) == node.execution_time(proposal.transactions)
        node.profile = dataclasses.replace(node.profile, execute_cost=1.0)
        assert proposal.execution_time(node) == node.execution_time(proposal.transactions)
        assert proposal.execution_time(node) == pytest.approx(5 * (1.0 + node.profile.per_tx_overhead))
