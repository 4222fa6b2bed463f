"""Ablation: end-to-end (client-side) vs node-side measurement.

The paper's central methodological claim (Sections 4.5, 5.8.2, 7): tools
that read metrics off the blockchain nodes (BlockBench, Diablo, Gromit)
miss failures of the client-facing path. The sharpest case is Fabric
with 16 peers — the nodes order, validate and commit every transaction,
yet the clients never receive a confirmation. Node-side measurement
would report a healthy throughput; the paper's end-to-end measurement
reports zero.

This bench quantifies that divergence directly from one deployment's two
vantage points.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.coconut.config import BenchmarkConfig
from repro.coconut.metrics import PhaseMetrics
from repro.coconut.provisioner import Provisioner
from repro.stream import PhaseAccumulator


def run_fabric(node_count):
    config = BenchmarkConfig(
        system="fabric", iel="DoNothing", rate_limit=100, node_count=node_count,
        scale=0.1, repetitions=1, seed=42,
    )
    rig = Provisioner().provision(config, 0)
    for client in rig.clients:
        client.run_phase("DoNothing", 0.0)
    rig.sim.run(until=config.scaled_total)
    merged = PhaseAccumulator.merged(
        [client.stream.accumulator("DoNothing") for client in rig.clients], "DoNothing"
    )
    metrics = PhaseMetrics.from_accumulator(merged, 0)
    node = rig.system.nodes[rig.system.node_ids[0]]
    duration = max(metrics.duration, config.scaled_send)
    node_side_tps = node.chain.total_payloads() / duration
    client_side_tps = metrics.tps
    return node_side_tps, client_side_tps, metrics


def test_ablation_endtoend_measurement(benchmark):
    results = run_once(benchmark, lambda: (run_fabric(4), run_fabric(16)))
    (node4, client4, metrics4), (node16, client16, metrics16) = results
    print()
    print("Measurement vantage point comparison (Fabric, DoNothing, RL=400):")
    print(f"  4 peers : node-side {node4:8.1f} tps   client-side {client4:8.1f} tps")
    print(f"  16 peers: node-side {node16:8.1f} tps   client-side {client16:8.1f} tps")

    checks = [
        ShapeCheck(
            "4 peers: both vantage points agree",
            passed=abs(node4 - client4) < 0.2 * max(node4, 1e-9),
            detail=f"node {node4:.0f} vs client {client4:.0f}",
        ),
        ShapeCheck(
            "16 peers: nodes commit everything...",
            passed=node16 > 0.5 * node4,
            detail=f"node-side {node16:.0f} tps",
        ),
        ShapeCheck(
            "...but clients receive nothing (the paper's end-to-end point)",
            passed=client16 == 0.0 and metrics16.received == 0,
            detail=f"client-side {client16:.0f} tps, received {metrics16.received}",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
