"""Shared rig for consensus engine tests: a cluster of engine replicas
wired through a simulated network."""

from repro.consensus.base import EngineContext
from repro.net import ConstantLatency, Endpoint, Host, Network
from repro.sim import Simulator


class EngineHost(Endpoint):
    """An endpoint that routes all traffic into one engine replica."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.engine = None
        self.decisions = []

    def on_message(self, message):
        self.engine.on_message(message.kind, message.src, message.payload)


class Cluster:
    """A group of engine replicas plus the plumbing between them."""

    def __init__(self, n, engine_factory, latency=0.002, seed=1):
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, default_latency=ConstantLatency(latency))
        self.node_ids = [f"n{i}" for i in range(n)]
        self.nodes = {}
        for node_id in self.node_ids:
            node = EngineHost(node_id)
            self.network.attach(node, Host(f"host-{node_id}"))
            self.nodes[node_id] = node
        for node_id, node in self.nodes.items():
            context = EngineContext(
                sim=self.sim,
                network=self.network,
                replica_id=node_id,
                peers=self.node_ids,
                decide_fn=lambda decision, me=node: me.decisions.append(decision),
                rng=self.sim.rng.stream(f"engine:{node_id}"),
            )
            node.engine = engine_factory(context, node_id)

    def start(self):
        for node in self.nodes.values():
            node.engine.start()

    def engines(self):
        return [self.nodes[node_id].engine for node_id in self.node_ids]

    def decisions_of(self, node_id):
        return self.nodes[node_id].decisions

    def decided_proposals(self, node_id):
        return [d.proposal for d in self.nodes[node_id].decisions]

    def assert_all_consistent(self):
        """Every pair of replicas agrees on the common prefix of decisions."""
        per_node = [self.decided_proposals(node_id) for node_id in self.node_ids]
        for other in per_node[1:]:
            common = min(len(per_node[0]), len(other))
            assert per_node[0][:common] == other[:common], "replicas diverged"
