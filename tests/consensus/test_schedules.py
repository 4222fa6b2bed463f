"""Fixed-seed schedule pins for the five consensus engines.

Each case runs a :class:`~tests.consensus.harness.Cluster` of one
engine and hashes everything the run shows from outside: every
delivered message as ``(time, src, dst, kind, size_bytes)`` and every
decision as ``(node, sequence, proposer, proposal, decided_at)``. The
digests below were captured once and must not be re-captured: a
refactor of the engines keeps the exact order of their sends, timers
and decisions, so a changed digest is a changed protocol.

Three cases per engine and group size: fault-free, one replica crashed
and recovered, and (with the recovery aids armed) a partition that
heals.
"""

import hashlib

import pytest

from repro.consensus.diembft import DiemBftEngine
from repro.consensus.dpos import DposEngine
from repro.consensus.ibft import IbftEngine
from repro.consensus.pbft import PbftEngine
from repro.consensus.raft import RaftEngine
from tests.consensus.harness import Cluster

RUN_UNTIL = 12.0
CRASH_AT, RECOVER_AT = 1.0, 4.0
PARTITION_AT, HEAL_AT = 1.0, 5.0


def ibft_cluster(n, seed):
    feed = {height: f"block-{height}" for height in range(10)}
    cluster = Cluster(
        n, lambda ctx, node_id: IbftEngine(ctx, proposal_factory=feed.get, round_timeout=0.5),
        seed=seed,
    )
    for tick in range(int(RUN_UNTIL / 0.3)):
        for engine in cluster.engines():
            cluster.sim.schedule(0.3 * tick, engine.maybe_propose)
    return cluster


def pbft_cluster(n, seed):
    items = [f"block-{index}" for index in range(10)]

    def factory(sequence):
        return items.pop(0) if items else None

    cluster = Cluster(
        n,
        lambda ctx, node_id: PbftEngine(ctx, proposal_factory=factory, progress_timeout=0.5),
        seed=seed,
    )

    def tick():
        for engine in cluster.engines():
            if not engine.stopped:
                if items:
                    engine.note_pending_work()
                engine.maybe_propose()

    for index in range(int(RUN_UNTIL / 0.2)):
        cluster.sim.schedule(0.2 * index, tick)
    return cluster


def diem_cluster(n, seed):
    def factory(round_number):
        return f"block-{round_number}" if round_number < 30 else None

    return Cluster(
        n,
        lambda ctx, node_id: DiemBftEngine(
            ctx, proposal_factory=factory, round_interval=0.1, round_timeout=0.6
        ),
        seed=seed,
    )


def dpos_cluster(n, seed):
    witnesses = [f"n{index}" for index in range(n - 1)]

    def factory(slot):
        return f"block-slot-{slot}" if slot < 20 else None

    return Cluster(
        n,
        lambda ctx, node_id: DposEngine(
            ctx, witnesses=witnesses, block_interval=0.5, proposal_factory=factory
        ),
        seed=seed,
    )


def raft_cluster(n, seed):
    cluster = Cluster(n, lambda ctx, node_id: RaftEngine(ctx), seed=seed)

    def feed(index):
        for engine in cluster.engines():
            if engine.is_leader:
                engine.submit_proposal(f"entry-{index}")
                break

    for index in range(20):
        cluster.sim.schedule(0.5 + 0.4 * index, feed, index)
    return cluster


BUILDERS = {
    "ibft": ibft_cluster,
    "pbft": pbft_cluster,
    "diem": diem_cluster,
    "dpos": dpos_cluster,
    "raft": raft_cluster,
}


def crash_one(cluster):
    """Crash the first replica (the first proposer, primary, leader or
    witness) at ``CRASH_AT`` and recover it at ``RECOVER_AT``."""
    victim = cluster.engines()[0]
    cluster.sim.schedule(CRASH_AT, victim.stop)
    cluster.sim.schedule(RECOVER_AT, victim.recover)


def partition_heal(cluster):
    """Arm the recovery aids and split the group in two for a while."""
    for engine in cluster.engines():
        engine.enable_recovery()
    ids = cluster.node_ids
    half = len(ids) // 2
    cluster.sim.schedule(
        PARTITION_AT, cluster.network.partitions.partition, ids[:half], ids[half:]
    )
    cluster.sim.schedule(HEAL_AT, cluster.network.partitions.heal_all)


FAULTS = {"none": None, "crash": crash_one, "partition": partition_heal}


class DecisionLog(list):
    """A node's decision list that also appends to the shared run log."""

    def __init__(self, log, node_id):
        super().__init__()
        self.log = log
        self.node_id = node_id

    def append(self, decision):
        super().append(decision)
        self.log.append((
            "decision", self.node_id, decision.sequence, decision.proposer,
            repr(decision.proposal), decision.decided_at,
        ))


def schedule_digest(engine, n, fault, seed=3):
    cluster = BUILDERS[engine](n, seed)
    log = []
    for node in cluster.nodes.values():
        def deliver(message, handle=node.on_message):
            log.append((
                "msg", cluster.sim.now, message.src, message.dst, message.kind,
                message.size_bytes,
            ))
            handle(message)

        node.on_message = deliver
        node.decisions = DecisionLog(log, node.endpoint_id)
    if FAULTS[fault] is not None:
        FAULTS[fault](cluster)
    cluster.start()
    cluster.sim.run(until=RUN_UNTIL)
    decided = sum(1 for entry in log if entry[0] == "decision")
    return hashlib.sha256(repr(log).encode()).hexdigest()[:16], decided


#: (engine, n, fault) -> (digest, decisions in the run), captured once.
EXPECTED = {
    ("diem", 4, "crash"): ("d56ca9211149f1b5", 353),
    ("diem", 4, "none"): ("527a46a3b1f67f91", 453),
    ("diem", 4, "partition"): ("82b55cf62ff543cc", 30),
    ("diem", 7, "crash"): ("cd0e5ac74b9df527", 617),
    ("diem", 7, "none"): ("80a108e2065ef62c", 792),
    ("diem", 7, "partition"): ("97cfc2ed133aed16", 52),
    ("dpos", 4, "crash"): ("49e5bc3a60724d42", 72),
    ("dpos", 4, "none"): ("a45a3222868c27ae", 80),
    ("dpos", 4, "partition"): ("42123a58c65eb086", 60),
    ("dpos", 7, "crash"): ("0299a25ab70f496c", 133),
    ("dpos", 7, "none"): ("06f862036416fde6", 140),
    ("dpos", 7, "partition"): ("57b305326bb8a9ab", 105),
    ("ibft", 4, "crash"): ("7a9a13db48888970", 40),
    ("ibft", 4, "none"): ("fb3cdab5a1d8d549", 40),
    ("ibft", 4, "partition"): ("d36cdf52209cbe59", 40),
    ("ibft", 7, "crash"): ("308676c048a69c6a", 70),
    ("ibft", 7, "none"): ("acda1cbda82901b8", 70),
    ("ibft", 7, "partition"): ("e169ee48acee440a", 70),
    ("pbft", 4, "crash"): ("d1990cb2a861d816", 40),
    ("pbft", 4, "none"): ("6717e44160a603e4", 40),
    ("pbft", 4, "partition"): ("22f3894b7ebd1217", 20),
    ("pbft", 7, "crash"): ("1bbe49bbc2fe34fc", 70),
    ("pbft", 7, "none"): ("0a42c9208d105b90", 70),
    ("pbft", 7, "partition"): ("27e51d78c7ce8e20", 35),
    ("raft", 4, "crash"): ("d709aa08c57be526", 80),
    ("raft", 4, "none"): ("dc8a18e892cf9fd7", 80),
    ("raft", 4, "partition"): ("b0022f83acf7c488", 72),
    ("raft", 7, "crash"): ("1acc2cde690da267", 140),
    ("raft", 7, "none"): ("69b8403596005dfc", 140),
    ("raft", 7, "partition"): ("202347737c591dc7", 70),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("engine", sorted(BUILDERS))
def test_schedule_is_pinned(engine, n, fault):
    digest, decided = schedule_digest(engine, n, fault)
    assert decided > 0
    assert (digest, decided) == EXPECTED[engine, n, fault]
