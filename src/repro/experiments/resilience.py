"""The resilience experiment family: fault injection across all systems.

The paper benchmarks only healthy deployments; these experiments extend
the comparison to failure behaviour, which the simulator can explore
deterministically. Two scenario sets, each run for every system on the
DoNothing benchmark at a deliberately low rate limiter (so no system is
near its saturation cliff and any throughput dip is attributable to the
fault, not to load):

* ``resilience_leader_crash`` — whoever coordinates consensus at 25% of
  the send window is crashed and restarted at 50%. BFT/CFT engines are
  expected to recover (Raft re-election, PBFT view change, IBFT round
  change, DiemBFT pacemaker, DPoS slot skip); because a confirmation
  requires a commit on *all* nodes, throughput dips to zero until the
  crashed node restarts and catches up.
* ``resilience_partition`` — a minority isolation (one node cut off,
  healed at 50%) and a majority 2|2 split (healed at 50%). A 2|2 split
  leaves no side with a BFT quorum, so consensus itself stalls until the
  heal; the minority case stalls only finality.

A scenario's verdict is ``recovered`` when post-fault throughput returns
to within the tolerance of the pre-fault baseline, else ``stalled`` —
a stall is a *finding*, not an error, and stays in the table.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.chains.registry import SYSTEM_NAMES
from repro.coconut.config import BenchmarkConfig
from repro.coconut.results import PhaseResult
from repro.faults import FaultPlan, ResilienceReport

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.executor import Executor

#: Payloads/second per client — low enough that every system runs well
#: below saturation (Quorum's selection stall, Sawtooth's admission
#: contention and Corda's overload knee all stay dormant).
RATE_LIMIT = 5

#: Default window scale (send window 60 s: room for a fault at 15 s, a
#: repair at 30 s and a recovery tail).
DEFAULT_SCALE = 0.2

#: Fault start / repair as fractions of the scaled send window.
FAULT_AT_FRACTION = 0.25
REPAIR_AT_FRACTION = 0.50


def leader_crash_plan(config: BenchmarkConfig) -> FaultPlan:
    """Crash the consensus coordinator at 25%, restart it at 50%."""
    send = config.scaled_send
    plan = FaultPlan()
    plan.kill_leader(at=FAULT_AT_FRACTION * send)
    plan.restart("leader", at=REPAIR_AT_FRACTION * send)
    return plan


def minority_isolation_plan(config: BenchmarkConfig) -> FaultPlan:
    """Cut one node off the network at 25%, reconnect it at 50%."""
    send = config.scaled_send
    plan = FaultPlan()
    plan.isolate("n0", at=FAULT_AT_FRACTION * send)
    plan.heal("n0", at=REPAIR_AT_FRACTION * send)
    return plan


def majority_partition_plan(config: BenchmarkConfig) -> FaultPlan:
    """Split the deployment down the middle at 25%, heal at 50%.

    With four nodes neither half holds a BFT quorum, so consensus loses
    liveness entirely until the heal.
    """
    send = config.scaled_send
    half = config.node_count // 2
    group_a = [f"n{i}" for i in range(half)]
    group_b = [f"n{i}" for i in range(half, config.node_count)]
    plan = FaultPlan()
    plan.partition(group_a, group_b, at=FAULT_AT_FRACTION * send)
    plan.heal_all(at=REPAIR_AT_FRACTION * send)
    return plan


@dataclasses.dataclass
class ResilienceRow:
    """One (system, scenario) outcome."""

    system: str
    scenario: str
    phase_result: PhaseResult
    report: typing.Optional[ResilienceReport]

    @property
    def verdict(self) -> str:
        if self.report is None:
            return "no faults fired"
        return "recovered" if self.report.recovered else "stalled"

    def cells(self) -> typing.List[str]:
        phase = self.phase_result
        if self.report is None:
            return [self.system, self.scenario, f"{phase.mtps.mean:.2f}", "-", "-", "-", "-",
                    self.verdict]
        report = self.report
        recover = (
            f"{report.time_to_recover:.1f}s" if report.time_to_recover is not None else "never"
        )
        return [
            self.system,
            self.scenario,
            f"{phase.mtps.mean:.2f}",
            f"{report.baseline_tps:.1f}",
            f"{report.dip_tps:.1f} ({report.dip_depth:.0%})",
            recover,
            f"{report.committed_in_window}/{report.lost_in_window}",
            self.verdict,
        ]


@dataclasses.dataclass
class ResilienceRun:
    """The outcome of one resilience experiment."""

    experiment_id: str
    title: str
    rows: typing.List[ResilienceRow]

    def row(self, system: str, scenario: str) -> ResilienceRow:
        """Look one (system, scenario) row up."""
        for row in self.rows:
            if row.system == system and row.scenario == scenario:
                return row
        raise KeyError(f"no row for ({system!r}, {scenario!r})")

    def render(self) -> str:
        from repro.coconut.report import format_table

        table = format_table(
            ["System", "Scenario", "MTPS", "Base tps", "Dip", "Recovery",
             "Win comm/lost", "Verdict"],
            [row.cells() for row in self.rows],
        )
        return f"{self.title}\n{table}"


class ResilienceExperiment:
    """Fault scenarios applied uniformly to every system."""

    def __init__(
        self,
        experiment_id: str,
        title: str,
        scenarios: typing.Sequence[
            typing.Tuple[str, typing.Callable[[BenchmarkConfig], FaultPlan]]
        ],
    ) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.scenarios = list(scenarios)

    def run(
        self,
        systems: typing.Optional[typing.Sequence[str]] = None,
        scale: typing.Optional[float] = None,
        seed: int = 61,
        executor: typing.Optional["Executor"] = None,
    ) -> ResilienceRun:
        if executor is None:
            from repro.parallel.executor import Executor

            executor = Executor()
        systems = tuple(systems or SYSTEM_NAMES)
        specs: typing.List[typing.Tuple[str, str, BenchmarkConfig]] = []
        for system in systems:
            for scenario, plan_factory in self.scenarios:
                config = BenchmarkConfig(
                    system=system,
                    iel="DoNothing",
                    rate_limit=RATE_LIMIT,
                    repetitions=1,
                    scale=scale if scale is not None else DEFAULT_SCALE,
                    seed=seed,
                )
                config.fault_plan = plan_factory(config)
                specs.append((system, scenario, config))
        units = [o.result for o in executor.run_units([c for __, __, c in specs])]
        rows = []
        for (system, scenario, __), unit in zip(specs, units):
            phase_result = unit.phase("DoNothing")
            rows.append(
                ResilienceRow(
                    system=system,
                    scenario=scenario,
                    phase_result=phase_result,
                    report=phase_result.resilience_report(),
                )
            )
        return ResilienceRun(
            experiment_id=self.experiment_id, title=self.title, rows=rows
        )


def resilience_leader_crash() -> ResilienceExperiment:
    """Leader crash + restart across all seven systems."""
    return ResilienceExperiment(
        "resilience_leader_crash",
        "Resilience: leader crash at 25% of the send window, restart at 50%",
        [("leader-crash", leader_crash_plan)],
    )


def resilience_partition() -> ResilienceExperiment:
    """Minority isolation and majority split across all seven systems."""
    return ResilienceExperiment(
        "resilience_partition",
        "Resilience: minority isolation and majority 2|2 partition (healed at 50%)",
        [
            ("minority-isolated", minority_isolation_plan),
            ("majority-2|2", majority_partition_plan),
        ],
    )
