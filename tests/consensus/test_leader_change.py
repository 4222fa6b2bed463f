"""The leader-change vote's two thresholds, per engine.

IBFT's round change and PBFT's view change are one vote: a replica
joins once f+1 peers demand the next round or view (at least one of
them correct), broadcasting its own vote once, and enters it at a BFT
quorum. DiemBFT has the quorum half only: a quorum of timeout votes
advances the round.
"""

import pytest

from repro.consensus.base import max_faulty
from repro.consensus.diembft import DiemBftEngine
from repro.consensus.ibft import IbftEngine
from repro.consensus.pbft import PbftEngine
from tests.consensus.harness import Cluster

#: engine -> (vote kind, the vote's payload for the next round or view,
#: the attribute holding the current round or view)
VOTES = {
    IbftEngine: ("ibft/round_change", {"height": 0, "round": 1}, "round"),
    PbftEngine: ("pbft/view_change", {"new_view": 1}, "view"),
}


def replica(engine_class, n):
    """Replica n0 of an unstarted group, with its broadcasts recorded."""
    cluster = Cluster(n, lambda ctx, node_id: engine_class(ctx))
    engine = cluster.nodes["n0"].engine
    sent = []
    broadcast = engine.context.broadcast

    def record(kind, payload, size_bytes=256):
        sent.append(kind)
        broadcast(kind, payload, size_bytes)

    engine.context.broadcast = record
    return cluster, engine, sent


@pytest.mark.parametrize("n", [4, 7, 16])
@pytest.mark.parametrize("engine_class", list(VOTES), ids=lambda cls: cls.__name__)
def test_join_at_f_plus_one_enter_at_quorum(engine_class, n):
    kind, payload, position = VOTES[engine_class]
    cluster, engine, sent = replica(engine_class, n)
    f = max_faulty(n)
    quorum = engine.context.bft_quorum
    for count, voter in enumerate(cluster.node_ids[1:quorum], start=1):
        engine.on_message(kind, voter, dict(payload))
        joined = count >= f + 1
        assert sent.count(kind) == (1 if joined else 0), (count, sent)
        votes = count + (1 if joined else 0)
        assert getattr(engine, position) == (1 if votes >= quorum else 0), count
    assert getattr(engine, position) == 1
    assert sent.count(kind) == 1


@pytest.mark.parametrize("n", [4, 7, 16])
def test_f_peer_votes_do_not_move_a_replica(n):
    for engine_class, (kind, payload, position) in VOTES.items():
        cluster, engine, sent = replica(engine_class, n)
        for voter in cluster.node_ids[1:max_faulty(n) + 1]:
            engine.on_message(kind, voter, dict(payload))
        assert sent == []
        assert getattr(engine, position) == 0


@pytest.mark.parametrize("n", [4, 7, 16])
def test_diem_timeout_quorum_advances_the_round(n):
    cluster, engine, sent = replica(DiemBftEngine, n)
    quorum = engine.context.bft_quorum
    for count, voter in enumerate(cluster.node_ids[1:quorum + 1], start=1):
        engine.on_message("diem/timeout", voter, {"round": 0})
        assert engine.current_round == (1 if count >= quorum else 0), count
    assert "diem/timeout" not in sent  # no f+1 join: a replica times out by itself
