"""Randomized crash/recovery schedules against every BFT engine.

The invariant under test is agreement: however replicas crash and
recover (within the fault bound), no two replicas may ever decide
different values for the same slot.
"""

import pytest

from repro.consensus.diembft import DiemBftEngine
from repro.consensus.ibft import IbftEngine
from repro.consensus.raft import RaftEngine
from tests.consensus.harness import Cluster


def chaos_schedule(cluster, victims, rng, stop_window=(0.5, 4.0), down_time=(1.0, 3.0)):
    for victim in victims:
        down_at = rng.uniform(*stop_window)
        up_at = down_at + rng.uniform(*down_time)
        cluster.sim.schedule(down_at, lambda v=victim: v.stop())
        cluster.sim.schedule(up_at, lambda v=victim: v.recover())


class TestIbftChaos:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_divergence_under_crash_recover(self, seed):
        feed = {h: f"block-{h}" for h in range(12)}
        cluster = Cluster(
            7,
            lambda ctx, node_id: IbftEngine(
                ctx, proposal_factory=feed.get, round_timeout=0.5
            ),
            seed=seed,
        )
        cluster.start()
        rng = cluster.sim.rng.stream("chaos")
        victims = rng.sample(cluster.engines(), 2)
        chaos_schedule(cluster, victims, rng)
        for i in range(60):
            for engine in cluster.engines():
                cluster.sim.schedule(0.3 * i, lambda e=engine: e.maybe_propose())
        cluster.sim.run(until=30.0)
        cluster.assert_all_consistent()
        # Liveness: a quorum of replicas kept deciding.
        deciders = sum(1 for nid in cluster.node_ids if cluster.decided_proposals(nid))
        assert deciders >= 5


class TestDiemChaos:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_divergence_under_crash_recover(self, seed):
        def factory(round_number):
            return f"block-{round_number}" if round_number < 40 else None

        cluster = Cluster(
            7,
            lambda ctx, node_id: DiemBftEngine(
                ctx, proposal_factory=factory, round_interval=0.1, round_timeout=0.6
            ),
            seed=seed + 100,
        )
        cluster.start()
        rng = cluster.sim.rng.stream("chaos")
        victims = rng.sample(cluster.engines(), 2)
        chaos_schedule(cluster, victims, rng)
        cluster.sim.run(until=30.0)
        cluster.assert_all_consistent()
        longest = max(len(cluster.decided_proposals(nid)) for nid in cluster.node_ids)
        assert longest >= 5


class TestRaftChaos:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_divergence_under_crash_recover(self, seed):
        cluster = Cluster(5, lambda ctx, node_id: RaftEngine(ctx), seed=seed + 200)
        cluster.start()
        rng = cluster.sim.rng.stream("chaos")
        victims = rng.sample(cluster.engines(), 2)
        chaos_schedule(cluster, victims, rng, stop_window=(1.0, 6.0))

        def feed(i):
            for engine in cluster.engines():
                if engine.is_leader:
                    engine.submit_proposal(f"entry-{i}")
                    break
            if i < 14:
                cluster.sim.resume_after(0.5, feed, i + 1)

        cluster.sim.schedule(0.0, cluster.sim.resume_after, 0.5, feed, 0)
        cluster.sim.run(until=30.0)
        cluster.assert_all_consistent()
        longest = max(len(cluster.decided_proposals(nid)) for nid in cluster.node_ids)
        assert longest >= 5
