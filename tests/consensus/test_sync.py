"""Decided-log sync: a restarted replica replays what it missed.

IBFT, PBFT and DPoS keep the decided ``(proposal, proposer)`` pairs in
order; a restarted replica asks a peer for the suffix it lacks and
replays it, recording each entry with ``sync`` evidence. The log's
length is the replica's next index after every decision.
"""

from repro.consensus.dpos import DposEngine
from repro.consensus.ibft import IbftEngine
from repro.consensus.pbft import PbftEngine
from tests.consensus.harness import Cluster


class EvidenceChecker:
    """An enabled invariant checker that keeps each decision's evidence."""

    enabled = True

    def __init__(self):
        self.evidence = {}

    def on_decision(self, replica_id, engine, decision, evidence, n):
        self.evidence.setdefault(replica_id, []).append((decision.sequence, evidence))

    def on_qc(self, engine, round_number, votes, n):
        pass


class CheckedDecisions(list):
    """A node's decision list that checks, at each decision, that the
    engine's decided log is as long as its next index."""

    def __init__(self, engine, next_index):
        super().__init__()
        self.engine = engine
        self.next_index = next_index

    def append(self, decision):
        assert len(self.engine.decided_log) == self.next_index(self.engine) == (
            decision.sequence + 1
        )
        super().append(decision)


def checked_cluster(n, factory, next_index):
    cluster = Cluster(n, factory)
    checker = EvidenceChecker()
    cluster.sim.set_checker(checker)
    for node in cluster.nodes.values():
        node.decisions = CheckedDecisions(node.engine, next_index)
    return cluster, checker


def ibft_height(engine):
    return engine.height


class TestIbftSync:
    def build(self):
        feed = {height: f"block-{height}" for height in range(6)}
        cluster, checker = checked_cluster(
            4,
            lambda ctx, node_id: IbftEngine(ctx, proposal_factory=feed.get, round_timeout=0.5),
            ibft_height,
        )
        victim = cluster.nodes["n3"].engine
        victim.stop()
        cluster.start()
        for tick in range(40):
            for engine in cluster.engines():
                cluster.sim.schedule(0.25 * tick, engine.maybe_propose)
        return cluster, checker, victim

    def test_restarted_validator_replays_missed_heights_in_order(self):
        cluster, checker, victim = self.build()
        cluster.sim.run(until=6.0)
        missed = cluster.decided_proposals("n0")
        assert len(missed) >= 3
        assert cluster.decided_proposals("n3") == []
        cluster.sim.schedule(0.0, victim.recover)
        cluster.sim.run(until=6.1)
        assert cluster.decided_proposals("n3") == missed
        assert [d.sequence for d in cluster.decisions_of("n3")] == list(range(len(missed)))
        assert [d.proposer for d in cluster.decisions_of("n3")] == [
            d.proposer for d in cluster.decisions_of("n0")
        ]
        assert checker.evidence["n3"] == [
            (height, {"kind": "sync"}) for height in range(len(missed))
        ]
        assert victim.height == len(missed)

    def test_duplicate_sync_response_replays_nothing(self):
        cluster, checker, victim = self.build()
        responses = []
        host = cluster.nodes["n3"]
        handle = host.on_message

        def deliver(message):
            if message.kind == "ibft/sync_response":
                responses.append(message)
            handle(message)

        host.on_message = deliver
        cluster.sim.run(until=6.0)
        cluster.sim.schedule(0.0, victim.recover)
        cluster.sim.run(until=6.1)
        # Every peer answered the broadcast request; only the first replayed.
        assert len(responses) == 3
        decided = list(cluster.decisions_of("n3"))
        height = victim.height
        victim.on_message("ibft/sync_response", responses[0].src, responses[0].payload)
        assert cluster.decisions_of("n3") == decided
        assert victim.height == height


def test_restarted_pbft_replica_replays_with_sync_evidence():
    items = [f"block-{index}" for index in range(5)]
    cluster, checker = checked_cluster(
        4,
        lambda ctx, node_id: PbftEngine(
            ctx, proposal_factory=lambda seq: items.pop(0) if items else None
        ),
        lambda engine: engine.executed_through + 1,
    )
    victim = cluster.nodes["n3"].engine
    victim.stop()
    cluster.start()
    for tick in range(5):
        cluster.sim.schedule(0.2 * tick, cluster.nodes["n0"].engine.maybe_propose)
    cluster.sim.run(until=2.0)
    cluster.sim.schedule(0.0, victim.recover)
    cluster.sim.run(until=3.0)
    assert cluster.decided_proposals("n3") == [f"block-{index}" for index in range(5)]
    assert checker.evidence["n3"] == [(seq, {"kind": "sync"}) for seq in range(5)]


class TestDposSync:
    def test_restarted_node_applies_missed_then_buffered_blocks(self):
        witnesses = ["n0", "n1", "n2"]
        cluster, checker = checked_cluster(
            4,
            lambda ctx, node_id: DposEngine(
                ctx, witnesses=witnesses, block_interval=1.0,
                proposal_factory=lambda slot: f"block-slot-{slot}",
            ),
            lambda engine: engine.height,
        )
        observer = cluster.nodes["n3"].engine
        observer.stop()
        cluster.start()
        # Recover just before slot 4's block (witness n1, at t=5.0): the
        # sync request reaches n0 before that block does, so the block
        # reaches n3 ahead of the sync answer and waits in the buffer.
        cluster.sim.schedule(4.9985, observer.recover)
        cluster.sim.run(until=5.0022)
        assert cluster.decided_proposals("n3") == []
        assert list(observer._future_blocks) == [4]
        cluster.sim.run(until=5.5)
        assert cluster.decided_proposals("n3") == [f"block-slot-{slot}" for slot in range(5)]
        assert [d.proposer for d in cluster.decisions_of("n3")] == [
            "n0", "n1", "n2", "n0", "n1",
        ]
        assert checker.evidence["n3"] == [(height, {"kind": "sync"}) for height in range(5)]
        assert observer._future_blocks == {}
        assert observer.height == 5
