"""Beyond the paper's tables: the end-to-end measurement ablation and
two extensions the paper's text proposes.

- ``ablation_endtoend`` quantifies the paper's central methodological
  claim (Sections 4.5, 5.8.2, 7): tools that read metrics off the
  blockchain nodes miss failures of the client-facing path. On 16-peer
  Fabric the nodes order, validate and commit every transaction, yet
  the clients receive no confirmation.
- ``ext_kafka_ordering`` runs Fabric's Raft and Kafka ordering services
  on the same workload (Section 5.4).
- ``ext_corda_subset_signing`` tests Section 6's hypothesis that Corda
  with a small signing subset outperforms Fabric on a large network.

Beside each sits its shape checks, as in :mod:`repro.experiments.tables`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.compare import ShapeCheck, within_factor
from repro.coconut.config import BenchmarkConfig
from repro.coconut.results import PhaseResult
from repro.experiments.base import Case, Experiment, ExperimentRun

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.executor import Executor


@dataclasses.dataclass
class VantagePoint:
    """One deployment's throughput seen from a node and from the clients."""

    peers: int
    node_tps: float
    client_tps: float
    received: int

    def cells(self) -> typing.List[str]:
        return [str(self.peers), f"{self.node_tps:.1f}", f"{self.client_tps:.1f}",
                str(self.received)]


@dataclasses.dataclass
class AblationRun:
    """The outcome of the end-to-end measurement ablation."""

    experiment_id: str
    title: str
    points: typing.List[VantagePoint]

    def point(self, peers: int) -> VantagePoint:
        """Look one network size up."""
        for point in self.points:
            if point.peers == peers:
                return point
        raise KeyError(f"no {peers}-peer point in {self.experiment_id}")

    def render(self) -> str:
        from repro.coconut.report import format_table

        table = format_table(
            ["Peers", "Node-side TPS", "Client-side TPS", "Received"],
            [point.cells() for point in self.points],
        )
        return f"{self.title}\n{table}"


class EndToEndAblation:
    """Fabric DoNothing at 4 and 16 peers, measured at both vantage points.

    The node-side count is the first peer's committed payloads over the
    phase, read off the deployment itself. That is why this experiment
    runs its two units in-process on one
    :class:`~repro.coconut.runner.BenchmarkRunner`, which keeps the last
    rig, instead of through an executor: an executor's units return
    only their client-side results and drop the deployment.
    """

    experiment_id = "ablation_endtoend"
    title = "Ablation: node-side vs client-side throughput - Fabric DoNothing, RL=400"
    peer_counts = (4, 16)

    def build_config(self, peers: int, scale: typing.Optional[float] = None) -> BenchmarkConfig:
        """The benchmark configuration of one network size."""
        return BenchmarkConfig(
            system="fabric", iel="DoNothing", rate_limit=100, node_count=peers,
            scale=0.1 if scale is None else scale, repetitions=1, seed=42,
        )

    def run(
        self,
        scale: typing.Optional[float] = None,
        executor: typing.Optional["Executor"] = None,
    ) -> AblationRun:
        """Run both network sizes in-process; ``executor`` is accepted
        like every experiment's and not used (see the class docstring)."""
        from repro.coconut.runner import BenchmarkRunner

        runner = BenchmarkRunner(keep_last_rig=True)
        points = []
        for peers in self.peer_counts:
            config = self.build_config(peers, scale=scale)
            metrics = runner.run(config).phase("DoNothing").repetitions[0]
            system = runner.last_rig.system
            committed = system.nodes[system.node_ids[0]].chain.total_payloads()
            duration = max(metrics.duration, config.scaled_send)
            points.append(VantagePoint(
                peers=peers, node_tps=committed / duration, client_tps=metrics.tps,
                received=metrics.received,
            ))
        return AblationRun(experiment_id=self.experiment_id, title=self.title, points=points)


def ablation_endtoend_checks(run: AblationRun) -> typing.List[ShapeCheck]:
    """Both vantage points agree at 4 peers; at 16 the nodes keep
    committing while the clients receive nothing."""
    small, large = run.point(4), run.point(16)
    return [
        ShapeCheck(
            "4 peers: both vantage points agree",
            passed=abs(small.node_tps - small.client_tps) < 0.2 * max(small.node_tps, 1e-9),
            detail=f"node {small.node_tps:.0f} vs client {small.client_tps:.0f}",
        ),
        ShapeCheck(
            "16 peers: nodes commit everything...",
            passed=large.node_tps > 0.5 * small.node_tps,
            detail=f"node-side {large.node_tps:.0f} tps",
        ),
        ShapeCheck(
            "...but clients receive nothing (the paper's end-to-end point)",
            passed=large.client_tps == 0.0 and large.received == 0,
            detail=f"client-side {large.client_tps:.0f} tps, received {large.received}",
        ),
    ]


def ext_kafka_ordering() -> Experiment:
    """Fabric's Raft vs Kafka ordering service, KeyValue-Set (Section 5.4).

    The paper ran Fabric on Raft and notes that Kafka "produces overhead
    due to its architecture, which leads to slower processing of the
    transactions". Both backends must order the same ledger, Kafka paying
    extra per-envelope ordering latency.
    """
    return Experiment(
        "ext_kafka_ordering",
        "Extension: Fabric ordering service, Raft vs Kafka - KeyValue-Set at MM=100",
        [
            Case(
                case_id=f"{ordering} RL={4 * rate}",
                config_kwargs=dict(
                    system="fabric", iel="KeyValue", phases=("Set",), rate_limit=rate,
                    params={"OrderingService": ordering, "MaxMessageCount": 100}, seed=54,
                ),
                phase="Set",
                recommended_scale=0.05,
            )
            for rate in (200, 400)
            for ordering in ("raft", "kafka")
        ],
    )


def _comparable(name: str, raft: PhaseResult, kafka: PhaseResult, factor: float) -> ShapeCheck:
    """Kafka's MTPS within ``x factor`` of Raft's."""
    return ShapeCheck(
        name,
        passed=within_factor(kafka.mtps.mean, raft.mtps.mean, factor),
        detail=f"kafka={kafka.mtps.mean:.2f} raft={raft.mtps.mean:.2f} band=x{factor}",
    )


def ext_kafka_ordering_checks(run: ExperimentRun) -> typing.List[ShapeCheck]:
    """Both backends confirm everything below saturation, Kafka with
    more latency and comparable throughput."""
    raft, kafka = run.case("raft RL=800").phase_result, run.case("kafka RL=800").phase_result
    raft_high = run.case("raft RL=1600").phase_result
    kafka_high = run.case("kafka RL=1600").phase_result
    return [
        ShapeCheck(
            "both backends confirm everything below saturation",
            passed=raft.loss_fraction < 0.01 and kafka.loss_fraction < 0.01,
            detail=f"raft {raft.loss_fraction:.1%}, kafka {kafka.loss_fraction:.1%}",
        ),
        ShapeCheck(
            "kafka adds ordering latency (the paper's 'overhead')",
            passed=kafka.mfls.mean > raft.mfls.mean,
            detail=f"{raft.mfls.mean:.3f}s -> {kafka.mfls.mean:.3f}s",
        ),
        _comparable("throughput comparable between backends at RL=800", raft, kafka, 1.25),
        _comparable(
            "throughput comparable between backends at RL=1600", raft_high, kafka_high, 1.35
        ),
    ]


def ext_corda_subset_signing() -> Experiment:
    """Corda Enterprise at 32 nodes with three required signers vs full
    signing, and vs Fabric at the same size (Section 6).

    The paper's lessons-learned hypothesis: "In a network that consists
    of many peers, where only a small subset of nodes need to sign a
    transaction at a time, Corda could achieve higher performance than
    Fabric." The main experiments make every node sign everything, which
    is why Corda collapses as the network grows (Figure 5).
    """
    corda = dict(system="corda_enterprise", iel="DoNothing", rate_limit=40, node_count=32,
                 seed=65)
    return Experiment(
        "ext_corda_subset_signing",
        "Extension: subset signing at 32 nodes - DoNothing",
        [
            Case(case_id="Corda Enterprise RL=160, all sign", config_kwargs=corda,
                 phase="DoNothing", recommended_scale=0.15),
            Case(
                case_id="Corda Enterprise RL=160, 3 signers",
                config_kwargs=dict(corda, params={"RequiredSigners": 3}),
                phase="DoNothing",
                recommended_scale=0.15,
            ),
            Case(
                case_id="Fabric RL=1600",
                config_kwargs=dict(system="fabric", iel="DoNothing", rate_limit=400,
                                   node_count=32, seed=65),
                phase="DoNothing",
                recommended_scale=0.15,
            ),
        ],
    )


def ext_corda_subset_signing_checks(run: ExperimentRun) -> typing.List[ShapeCheck]:
    """Subset signing lifts Corda past full signing and past Fabric,
    whose client event service has already failed at 32 peers."""
    full = run.case("Corda Enterprise RL=160, all sign").phase_result
    subset = run.case("Corda Enterprise RL=160, 3 signers").phase_result
    fabric = run.case("Fabric RL=1600").phase_result
    return [
        ShapeCheck(
            "subset signing beats full signing at 32 nodes",
            passed=subset.mtps.mean > 1.5 * full.mtps.mean,
            detail=f"{full.mtps.mean:.1f} -> {subset.mtps.mean:.1f}",
        ),
        ShapeCheck.failure_mode(
            "Fabric at 32 peers delivers nothing to clients (Fig. 5)",
            fabric.received.mean, expect_failure=True,
        ),
        ShapeCheck(
            "the Section 6 hypothesis holds: subset-signing Corda "
            "outperforms Fabric end to end at 32 nodes",
            passed=subset.mtps.mean > fabric.mtps.mean,
            detail=f"corda {subset.mtps.mean:.1f} vs fabric {fabric.mtps.mean:.1f}",
        ),
    ]
