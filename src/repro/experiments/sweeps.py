"""Parameter sweeps — the full Table 5/6 evaluation behind Section 6's
"parameter impact" lesson.

The paper's key finding: "the adaptation of the parameters we examined
only plays a rather minor role in the systems Fabric, Sawtooth and Diem,
[while] BitShares and especially Quorum show advantages of adapting
block finalization parameters". Each sweep below varies exactly one
parameter over the paper's evaluated values, holding the workload fixed,
and reports MTPS/MFLS per setting.

Beside the sweeps sit their shape checks (:data:`SWEEP_CHECKS`): the
paper's claims about each parameter as
:class:`~repro.analysis.compare.ShapeCheck` objects over one run.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.compare import ShapeCheck
from repro.coconut.config import BenchmarkConfig
from repro.coconut.report import markdown_section
from repro.coconut.results import PhaseResult
from repro.experiments.base import BatchExperiment, LabelledResult


@dataclasses.dataclass
class SweepPoint:
    """One setting of the swept parameter with its result."""

    value: object
    phase_result: PhaseResult


@dataclasses.dataclass
class SweepRun:
    """A completed one-parameter sweep."""

    sweep_id: str
    points: typing.List[SweepPoint]

    def at(self, value: object) -> PhaseResult:
        """The result of one swept setting."""
        for point in self.points:
            if point.value == value:
                return point.phase_result
        raise KeyError(f"no setting {value!r} in {self.sweep_id}")

    def mtps_values(self) -> typing.List[float]:
        """MTPS per swept setting, in sweep order."""
        return [point.phase_result.mtps.mean for point in self.points]

    def spread(self) -> float:
        """Relative spread of MTPS across settings: (max-min)/max.

        The paper's "minor role" systems show a small spread; Quorum's
        stall shows up as a spread near 1.0.
        """
        values = [v for v in self.mtps_values()]
        top = max(values) if values else 0.0
        if top == 0:
            return 0.0
        return (top - min(values)) / top


@dataclasses.dataclass
class ParameterSweep(BatchExperiment):
    """Definition of a one-parameter sweep."""

    sweep_id: str
    title: str
    parameter: str
    values: typing.Sequence[object]
    config_kwargs: typing.Dict[str, object]
    phase: str
    #: Whether the swept parameter is a system param (Table 5/6) or a
    #: config field (ops_per_transaction, txs_per_batch).
    is_system_param: bool = True
    recommended_scale: float = 0.1

    def configs(
        self, scale: typing.Optional[float]
    ) -> typing.List[typing.Tuple[object, BenchmarkConfig]]:
        """One unit per swept setting. Overlapping values (repeated, or
        collapsing to one config) run once: the executor dedupes units
        by fingerprint."""
        labelled = []
        for value in self.values:
            kwargs = dict(self.config_kwargs)
            if self.is_system_param:
                params = dict(typing.cast(dict, kwargs.get("params", {})))
                params[self.parameter] = value
                kwargs["params"] = params
            else:
                kwargs[self.parameter] = value
            labelled.append((value, BenchmarkConfig(
                scale=scale if scale is not None else self.recommended_scale,
                repetitions=1,
                **kwargs,
            )))
        return labelled

    def collect(self, results: typing.List[LabelledResult]) -> SweepRun:
        return SweepRun(self.sweep_id, [
            SweepPoint(value, unit.phase(self.phase)) for value, __, unit in results
        ])

    def table(self, run: SweepRun) -> str:
        """MTPS, MFLS and NoT per swept setting, and the MTPS spread."""
        rows = [
            [
                f"{self.parameter}={point.value}",
                f"{point.phase_result.mtps.mean:.2f}",
                f"{point.phase_result.mfls.mean:.2f}",
                f"{point.phase_result.received.mean:.0f}/"
                f"{point.phase_result.expected.mean:.0f}",
            ]
            for point in run.points
        ]
        return markdown_section(
            self.title, ["Setting", "MTPS", "MFLS (s)", "NoT"], rows,
            note=f"MTPS spread, (max - min) / max: {run.spread():.2f}.",
        )


def fabric_max_message_count() -> ParameterSweep:
    """Table 5: Fabric MaxMessageCount in {100, 500, 1000, 2000}.

    Paper: "the modification of the MaxMessageCount value does not
    reveal a high impact" (Section 5.4).
    """
    return ParameterSweep(
        sweep_id="sweep_fabric_mm",
        title="Fabric MaxMessageCount sweep (BankingApp-SendPayment, RL=1600)",
        parameter="MaxMessageCount",
        values=(100, 500, 1000, 2000),
        config_kwargs=dict(system="fabric", iel="BankingApp", rate_limit=400, seed=551),
        phase="SendPayment",
    )


def diem_max_block_size() -> ParameterSweep:
    """Table 5: Diem max_block_size in {100, 500, 1000, 2000}.

    Paper: best values with BS >= 1000 (Section 5.7), differences "have
    only a minor impact on the overall performance" relative to the
    dominating losses.
    """
    return ParameterSweep(
        sweep_id="sweep_diem_bs",
        title="Diem max_block_size sweep (KeyValue-Set, RL=200)",
        parameter="max_block_size",
        values=(100, 500, 1000, 2000),
        config_kwargs=dict(system="diem", iel="KeyValue", rate_limit=50,
                           phases=("Set",), seed=552),
        phase="Set",
        recommended_scale=0.4,
    )


def bitshares_block_interval() -> ParameterSweep:
    """Table 6: BitShares block_interval in {1, 2, 5, 10} s.

    Finalization latency tracks the interval (Section 5.3), so the
    parameter matters for MFLS.
    """
    return ParameterSweep(
        sweep_id="sweep_bitshares_bi",
        title="BitShares block_interval sweep (DoNothing, RL=1600, 100 ops/tx)",
        parameter="block_interval",
        values=(1.0, 2.0, 5.0, 10.0),
        config_kwargs=dict(system="bitshares", iel="DoNothing", rate_limit=400,
                           ops_per_transaction=100, seed=553),
        phase="DoNothing",
    )


def quorum_blockperiod() -> ParameterSweep:
    """Table 6: Quorum istanbul.blockperiod in {1, 2, 5, 10} s.

    The decisive parameter: <= 2 s under RL=400 kills the system
    (Section 5.5).
    """
    return ParameterSweep(
        sweep_id="sweep_quorum_bp",
        title="Quorum istanbul.blockperiod sweep (BankingApp-Balance, RL=400)",
        parameter="istanbul.blockperiod",
        values=(1.0, 2.0, 5.0, 10.0),
        config_kwargs=dict(system="quorum", iel="BankingApp", rate_limit=100, seed=554),
        phase="Balance",
        recommended_scale=0.15,
    )


def sawtooth_publishing_delay() -> ParameterSweep:
    """Table 6: Sawtooth block_publishing_delay in {1, 2, 5, 10} s.

    Paper: "adjusting the ... block_publishing_delay value does not
    reveal any significant difference" (Section 5.6).
    """
    return ParameterSweep(
        sweep_id="sweep_sawtooth_pd",
        title="Sawtooth block_publishing_delay sweep (BankingApp-CreateAccount, RL=200)",
        parameter="block_publishing_delay",
        values=(1.0, 2.0, 5.0, 10.0),
        config_kwargs=dict(system="sawtooth", iel="BankingApp", rate_limit=50,
                           txs_per_batch=100, phases=("CreateAccount",), seed=555),
        phase="CreateAccount",
        recommended_scale=0.2,
    )


def bitshares_operations() -> ParameterSweep:
    """Section 4.4: BitShares with 1, 50, 100 operations per transaction.

    Per-transaction overhead dominates at 1 op (~590 payloads/s ceiling);
    100 ops reach the full offered rate.
    """
    return ParameterSweep(
        sweep_id="sweep_bitshares_ops",
        title="BitShares operations-per-transaction sweep (DoNothing, RL=1600)",
        parameter="ops_per_transaction",
        values=(1, 50, 100),
        config_kwargs=dict(system="bitshares", iel="DoNothing", rate_limit=400,
                           params={"block_interval": 1.0}, seed=556),
        phase="DoNothing",
        is_system_param=False,
    )


def sawtooth_batch_sizes() -> ParameterSweep:
    """Section 4.4: Sawtooth with 1, 50, 100 transactions per batch.

    Per-batch overhead caps single-transaction batches near 27/s; 100-tx
    batches reach ~100 payloads/s (Section 5.6).
    """
    return ParameterSweep(
        sweep_id="sweep_sawtooth_batch",
        title="Sawtooth transactions-per-batch sweep (DoNothing, RL=200)",
        parameter="txs_per_batch",
        values=(1, 50, 100),
        config_kwargs=dict(system="sawtooth", iel="DoNothing", rate_limit=50, seed=557),
        phase="DoNothing",
        is_system_param=False,
        recommended_scale=0.2,
    )


#: All sweeps, keyed by id.
SWEEPS: typing.Dict[str, typing.Callable[[], ParameterSweep]] = {
    "sweep_fabric_mm": fabric_max_message_count,
    "sweep_diem_bs": diem_max_block_size,
    "sweep_bitshares_bi": bitshares_block_interval,
    "sweep_quorum_bp": quorum_blockperiod,
    "sweep_sawtooth_pd": sawtooth_publishing_delay,
    "sweep_bitshares_ops": bitshares_operations,
    "sweep_sawtooth_batch": sawtooth_batch_sizes,
}


def minor_parameter_checks(run: SweepRun) -> typing.List[ShapeCheck]:
    """Fabric's MaxMessageCount and Sawtooth's publishing delay barely
    move MTPS (Section 6: "a rather minor role")."""
    return [
        ShapeCheck(
            f"{run.sweep_id}: MTPS spread stays minor (paper Section 6)",
            passed=run.spread() <= 0.35,
            detail=f"spread={run.spread():.2f} over MTPS "
            + ", ".join(f"{value:.2f}" for value in run.mtps_values()),
        )
    ]


def quorum_blockperiod_checks(run: SweepRun) -> typing.List[ShapeCheck]:
    """Quorum's blockperiod decides between dead and alive (Section 5.5)."""
    alive = run.at(5.0).mtps.mean, run.at(10.0).mtps.mean
    return [
        ShapeCheck.failure_mode(
            "BP=1s fails under RL=400", run.at(1.0).received.mean, expect_failure=True
        ),
        ShapeCheck.failure_mode(
            "BP=2s fails under RL=400", run.at(2.0).received.mean, expect_failure=True
        ),
        ShapeCheck(
            "BP=5s and BP=10s stay alive",
            passed=min(alive) > 100,
            detail=f"{alive[0]:.0f} / {alive[1]:.0f}",
        ),
    ]


def bitshares_block_interval_checks(run: SweepRun) -> typing.List[ShapeCheck]:
    """BitShares' MFLS tracks the block interval; MTPS does not."""
    mfls = [point.phase_result.mfls.mean for point in run.points]
    return [
        ShapeCheck(
            "latency grows monotonically with block_interval",
            passed=all(a < b for a, b in zip(mfls, mfls[1:])),
            detail="MFLS=" + ", ".join(f"{value:.1f}" for value in mfls),
        ),
        ShapeCheck(
            "throughput barely moves",
            passed=run.spread() < 0.25,
            detail=f"spread={run.spread():.2f}",
        ),
    ]


def bitshares_operations_checks(run: SweepRun) -> typing.List[ShapeCheck]:
    """Operations per transaction gate BitShares' throughput (Section 5.3)."""
    one, hundred = run.at(1).mtps.mean, run.at(100).mtps.mean
    return [
        ShapeCheck(
            "BitShares: 1 op/tx caps near 590 payloads/s (Section 5.3)",
            passed=450 <= one <= 700,
            detail=f"{one:.0f}",
        ),
        ShapeCheck(
            "BitShares: 100 ops/tx sustain the full offered 1600/s",
            passed=hundred > 1400,
            detail=f"{hundred:.0f}",
        ),
    ]


def sawtooth_batch_checks(run: SweepRun) -> typing.List[ShapeCheck]:
    """Transactions per batch gate Sawtooth's throughput (Section 5.6)."""
    one, hundred = run.at(1).mtps.mean, run.at(100).mtps.mean
    return [
        ShapeCheck(
            "Sawtooth: 1 tx/batch caps within 18-45 payloads/s (paper: 26-35, Section 5.6)",
            passed=18 <= one <= 45,
            detail=f"{one:.1f}",
        ),
        ShapeCheck(
            "Sawtooth: 100 txs/batch several times faster",
            passed=hundred > 2 * one,
            detail=f"{one:.1f} -> {hundred:.1f}",
        ),
    ]


#: Each sweep's shape checks, keyed like :data:`SWEEPS`. Diem's has
#: none: the paper calls its differences minor only relative to the
#: dominating losses (Section 5.7), which bounds no spread.
SWEEP_CHECKS: typing.Dict[str, typing.Callable[[SweepRun], typing.List[ShapeCheck]]] = {
    "sweep_fabric_mm": minor_parameter_checks,
    "sweep_sawtooth_pd": minor_parameter_checks,
    "sweep_quorum_bp": quorum_blockperiod_checks,
    "sweep_bitshares_bi": bitshares_block_interval_checks,
    "sweep_bitshares_ops": bitshares_operations_checks,
    "sweep_sawtooth_batch": sawtooth_batch_checks,
}

