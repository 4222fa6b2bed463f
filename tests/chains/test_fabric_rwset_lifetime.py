"""A Fabric block's read/write sets live from the cut to its finality.

An endorsed read/write set serves one reader: a peer's MVCC check in the
validate phase. ``FabricSystem.rwsets`` keeps each cut block's sets until
every peer has validated the block, so neither the Raft log nor the block
log keeps them alive after that. A crashed peer is absent from finality:
the blocks it missed keep their sets until it has validated them after
its restart.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.chains.fabric import FabricPeer, FabricSystem
from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.faults.plan import FaultPlan
from repro.storage.transaction import reset_id_counters

#: Bytes the kept deployment of :data:`CONFIG` may retain per offered
#: payload. With every set pinned by the Raft log and the block log it
#: retained 1,039 B; with the sets dropped at finality it retains 670 B
#: (CPython 3.11). The bound sits between the two.
MAX_RETAINED_BYTES_PER_PAYLOAD = 850

CONFIG = BenchmarkConfig(system="fabric", iel="KeyValue", rate_limit=100, scale=0.05,
                         seed=7, repetitions=1)


@pytest.fixture
def endorsed(monkeypatch):
    """``tx_id -> weakref`` to the read/write set of every endorsement."""
    sets = {}
    original = FabricPeer.endorse

    def endorse(self, transaction):
        envelope = original(self, transaction)
        sets[transaction.tx_id] = weakref.ref(envelope.rwset)
        return envelope

    monkeypatch.setattr(FabricPeer, "endorse", endorse)
    return sets


@pytest.fixture
def finalized(monkeypatch):
    """Proposal ids in the order their blocks became final."""
    keys = []
    original = FabricSystem._on_final

    def on_final(self, key, commit_time):
        keys.append(key)
        original(self, key, commit_time)

    monkeypatch.setattr(FabricSystem, "_on_final", on_final)
    return keys


def pinned_sets(system, endorsed, proposal_ids):
    """``tx_id``s of the blocks ``proposal_ids`` whose sets are alive."""
    gc.collect()
    return [
        tx.tx_id
        for proposal, __ in system.block_log if proposal.proposal_id in proposal_ids
        for tx in proposal.transactions if endorsed[tx.tx_id]() is not None
    ]


def test_no_set_of_a_final_block_stays_reachable(endorsed, finalized):
    runner = BenchmarkRunner()
    runner.run(CONFIG)
    system = runner.last_rig.system
    final = set(finalized)
    assert len(final) > 10
    # The Raft log and the block log still hold every final proposal...
    leader = system.orderers[system.leader_orderer_id()]
    logged = {entry.proposal.proposal_id for entry in leader.engine.log if entry.proposal}
    assert final <= logged
    assert final <= {proposal.proposal_id for proposal, __ in system.block_log}
    # ...but none of their read/write sets.
    assert pinned_sets(system, endorsed, final) == []
    assert final.isdisjoint(system.rwsets)


def retained_bytes(config):
    """Traced bytes still allocated after ``config`` ran, with the
    runner and its kept rig alive, and the payloads it offered."""
    runner = BenchmarkRunner()
    reset_id_counters()
    gc.collect()
    tracemalloc.start()
    try:
        result = runner.run(config)
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert runner.last_rig is not None
    offered = sum(phase.expected.mean for phase in result.phases.values())
    return current, offered


def test_a_kept_fabric_run_retains_at_most_850_bytes_per_payload():
    """A first run pays for lazy imports and caches, so that the
    measured one is not charged for them."""
    retained_bytes(CONFIG)
    kept, offered = retained_bytes(CONFIG)
    assert offered > 1000
    per_payload = kept / offered
    assert per_payload <= MAX_RETAINED_BYTES_PER_PAYLOAD, f"{per_payload:.0f} B per payload"


class TestFaultPaths:
    def test_a_crashed_peer_pins_the_sets_of_the_blocks_it_missed(
        self, endorsed, finalized, monkeypatch
    ):
        """Peer ``n1`` (not an orderer) is down from 5 s to 15 s. At its
        restart every block it missed is unfinal and still has its
        sets; afterwards it validates those blocks itself, and at the
        end every block is final and no set is left."""
        at_restart = {}
        original_restart = FabricSystem._post_restart

        def post_restart(self, endpoint_id):
            victim = self.nodes[endpoint_id]
            at_restart["missed"] = [
                proposal.proposal_id for proposal, __ in self.block_log[victim.chain.height + 1:]
            ]
            at_restart["held"] = set(self.rwsets)
            at_restart["pinned"] = pinned_sets(self, endorsed, at_restart["missed"])
            original_restart(self, endpoint_id)

        validated = []
        original_validate = FabricPeer.validate_block

        def validate_block(self, proposal):
            replayed = self.system.execution_memo.get((self.state.lineage, proposal.proposal_id))
            validated.append((self.endpoint_id, proposal.proposal_id, replayed is None))
            return original_validate(self, proposal)

        monkeypatch.setattr(FabricSystem, "_post_restart", post_restart)
        monkeypatch.setattr(FabricPeer, "validate_block", validate_block)
        config = BenchmarkConfig(
            system="fabric", iel="KeyValue", rate_limit=40, scale=0.1, seed=3,
            repetitions=1, fault_plan=FaultPlan().crash("n1", at=5.0).restart("n1", at=15.0),
        )
        runner = BenchmarkRunner(check=True, check_level="strict")
        runner.run(config)
        report = runner.last_invariants
        assert report is not None and report.ok and not report.violations, report.render()
        system = runner.last_rig.system
        victim = "fabric-n1"

        missed = at_restart["missed"]
        assert len(missed) > 5
        assert set(missed) <= at_restart["held"]
        assert len(at_restart["pinned"]) == sum(
            len(proposal.transactions)
            for proposal, __ in system.block_log if proposal.proposal_id in missed
        )
        # The restarted peer validated every missed block from the sets.
        own = {pid for node, pid, applied in validated if node == victim and applied}
        assert set(missed) <= own
        system.validate_all_chains()
        heights = set(system.total_chain_height().values())
        assert heights == {len(system.block_log) - 1}

        assert set(finalized) == {proposal.proposal_id for proposal, __ in system.block_log}
        assert system.rwsets == {}
        assert pinned_sets(system, endorsed, set(finalized)) == []

    def test_kafka_ordering_leaves_no_set_behind(self, endorsed, finalized):
        """Every Kafka orderer cuts its own copy of every block from the
        broker's shared envelopes; the first cut alone holds the sets,
        and neither the copies nor the broker's log keep one."""
        config = BenchmarkConfig(
            system="fabric", iel="KeyValue", rate_limit=100, scale=0.05, seed=7,
            repetitions=1, params={"OrderingService": "kafka"},
        )
        runner = BenchmarkRunner()
        runner.run(config)
        system = runner.last_rig.system
        assert system.broker.log_size() > 1000
        assert {o.blocks_cut for o in system.orderers.values()} == {len(system.block_log)}
        assert set(finalized) == {proposal.proposal_id for proposal, __ in system.block_log}
        assert system.rwsets == {}
        gc.collect()
        assert endorsed and all(ref() is None for ref in endorsed.values())
