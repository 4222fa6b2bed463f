"""Capacity experiments: automated MTPS ceilings for all seven systems.

The paper's Figure 3 grid reports each system's best observed MTPS per
benchmark after a manual rate sweep; these experiments produce the same
comparison automatically. One :class:`CapacityExperiment` per IEL runs a
:class:`~repro.search.engine.CapacitySearch` against every system over a
per-system rate window wide enough to bracket its knee (Corda's tens of
payloads/s and Fabric's thousands need very different grids), and the
table reports the knee operating point, the MTPS there, and how many
probes the search spent.

A system with no sustainable point in its window at the configured
scale is a *finding*, not an error — e.g. Diem's KeyValue unit loses
transactions at every rate under shortened windows because its mempool
drain is slower than the scaled listen window (see the divergence notes
in EXPERIMENTS.md).

The grid-oracle experiment re-searches two systems exhaustively; its
shape checks (:func:`capacity_oracle_checks`) hold the bisection of
the KeyValue experiment to the oracle's knee at a fraction of its cost.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.compare import ShapeCheck
from repro.chains.registry import SYSTEM_NAMES
from repro.coconut.report import markdown_section
from repro.experiments.base import select_systems
from repro.search.engine import REPORTED_PHASES, CapacitySearch
from repro.search.report import CapacityReport
from repro.search.space import SearchSpace, rate_space

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.executor import Executor

#: Per-system rate windows (per-client payloads/s). Wide enough that the
#: knee of every IEL lands inside; coarse enough that a grid oracle
#: stays affordable. The aggregate RL column is these times four.
CAPACITY_SPACES: typing.Dict[str, SearchSpace] = {
    "corda_os": rate_space(1, 16, 1),
    "corda_enterprise": rate_space(1, 16, 1),
    "bitshares": rate_space(25, 400, 25),
    "fabric": rate_space(25, 400, 25),
    "quorum": rate_space(5, 80, 5),
    "sawtooth": rate_space(1, 16, 1),
    "diem": rate_space(5, 80, 5),
}

#: Window scale capacity searches probe at: rate metrics are stable
#: across scale (EXPERIMENTS.md verifies), so the knee *rate* transfers
#: to full windows while each probe stays cheap.
DEFAULT_SCALE = 0.05


@dataclasses.dataclass
class CapacityRow:
    """One system's capacity-search outcome."""

    system: str
    report: CapacityReport

    def cells(self) -> typing.List[str]:
        report = self.report
        if not report.found:
            return [self.system, "-", "0.00", "-", str(report.probe_count),
                    "no sustainable point"]
        assert report.mtps is not None and report.mfls is not None
        # Every probe sustainable means the window never bracketed the
        # ceiling — the knee is a lower bound, not an operating point.
        bracketed = any(not probe.sustainable for probe in report.probes)
        return [
            self.system,
            str(report.knee_aggregate_rate),
            f"{report.mtps.mean:.2f}",
            f"{report.mfls.mean:.2f}",
            str(report.probe_count),
            "knee found" if bracketed else "no saturation in window",
        ]


@dataclasses.dataclass
class CapacityRun:
    """The outcome of one capacity experiment."""

    experiment_id: str
    rows: typing.List[CapacityRow]

    def row(self, system: str) -> CapacityRow:
        """Look one system's row up."""
        for row in self.rows:
            if row.system == system:
                return row
        raise KeyError(f"no row for {system!r} in {self.experiment_id}")


class CapacityExperiment:
    """One IEL's automated capacity comparison across all systems.

    A search decides each round's probes from the last round's verdicts,
    so this experiment runs its searches one after another, each round
    one batch through the executor, instead of one batch in all.
    """

    def __init__(
        self,
        experiment_id: str,
        title: str,
        iel: str,
        strategy: str = "bisect",
        seed: int = 81,
        systems: typing.Sequence[str] = SYSTEM_NAMES,
    ) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.iel = iel
        self.phase = REPORTED_PHASES[iel]
        self.strategy = strategy
        self.seed = seed
        self.systems = tuple(systems)

    def search_for(
        self, system: str, scale: typing.Optional[float] = None
    ) -> CapacitySearch:
        """The capacity search one system runs."""
        config_kwargs: typing.Dict[str, object] = {}
        if system == "bitshares":
            # The paper's standard BitShares deployment finalizes every
            # second; without it the 10 s default interval dominates.
            config_kwargs["params"] = {"block_interval": 1.0}
        return CapacitySearch(
            system=system,
            iel=self.iel,
            space=CAPACITY_SPACES[system],
            strategy=self.strategy,
            config_kwargs=config_kwargs,
            scale=scale if scale is not None else DEFAULT_SCALE,
            seed=self.seed,
        )

    def run(
        self,
        executor: typing.Optional["Executor"] = None,
        scale: typing.Optional[float] = None,
        systems: typing.Optional[typing.Sequence[str]] = None,
    ) -> CapacityRun:
        """Search the knee of each listed system (all of the experiment's
        by default)."""
        rows = [
            CapacityRow(system, self.search_for(system, scale=scale).run(executor=executor))
            for system in select_systems(self.systems, systems, lambda system: system)
        ]
        return CapacityRun(self.experiment_id, rows)

    def table(self, run: CapacityRun) -> str:
        total = sum(row.report.probe_count for row in run.rows)
        return markdown_section(
            self.title,
            ["System", "Knee RL", "MTPS", "MFLS (s)", "Probes", "Verdict"],
            [row.cells() for row in run.rows],
            note=f"(total probes: {total})",
        )


def capacity_donothing() -> CapacityExperiment:
    """Maximum sustainable DoNothing throughput, all systems."""
    return CapacityExperiment(
        "capacity_donothing",
        "Capacity: maximum sustainable throughput - DoNothing (bisection search)",
        iel="DoNothing",
    )


def capacity_keyvalue() -> CapacityExperiment:
    """Maximum sustainable KeyValue-Set throughput, all systems."""
    return CapacityExperiment(
        "capacity_keyvalue",
        "Capacity: maximum sustainable throughput - KeyValue-Set (bisection search)",
        iel="KeyValue",
    )


def capacity_bankingapp() -> CapacityExperiment:
    """Maximum sustainable BankingApp-SendPayment throughput, all systems."""
    return CapacityExperiment(
        "capacity_bankingapp",
        "Capacity: maximum sustainable throughput - BankingApp-SendPayment "
        "(bisection search)",
        iel="BankingApp",
    )


def capacity_keyvalue_grid() -> CapacityExperiment:
    """The exhaustive grid oracle for ``capacity_keyvalue``'s bisection,
    on one Raft-ordered system (Fabric) and one BFT system (Quorum,
    IBFT) at opposite ends of the rate scale."""
    return CapacityExperiment(
        "capacity_keyvalue_grid",
        "Capacity oracle: exhaustive grid search - KeyValue-Set (Fabric and Quorum)",
        iel="KeyValue",
        strategy="grid",
        systems=("fabric", "quorum"),
    )


def capacity_oracle_checks(run: CapacityRun, bisect: CapacityRun) -> typing.List[ShapeCheck]:
    """The bisection of ``bisect`` (the ``capacity_keyvalue`` run: same
    seed, scale and rate windows) against the grid oracle ``run``: it
    lands within one rate step of the oracle's knee, spends at most half
    its probes and offers less load. Every probe shares one scale and
    one client count, so the summed per-client probe rates measure the
    offered load; the detail lists both probe trajectories in search
    order."""
    checks: typing.List[ShapeCheck] = []
    for grid_row in run.rows:
        system = grid_row.system
        grid, found = grid_row.report, bisect.row(system).report
        step = int(CAPACITY_SPACES[system].rate.step)
        both_found = found.knee_rate is not None and grid.knee_rate is not None
        bisect_rates = [probe.rate_limit for probe in found.probes]
        grid_rates = [probe.rate_limit for probe in grid.probes]
        checks += [
            ShapeCheck(
                f"{system}: both strategies find a knee",
                passed=both_found,
                detail=f"bisect={found.knee_rate} grid={grid.knee_rate}",
            ),
            ShapeCheck(
                f"{system}: bisection within one rate step of the oracle",
                passed=both_found and abs(found.knee_rate - grid.knee_rate) <= step,
                detail=f"|{found.knee_rate} - {grid.knee_rate}| <= {step}",
            ),
            ShapeCheck(
                f"{system}: bisection spends <= half the oracle's probes",
                passed=found.probe_count <= grid.probe_count // 2,
                detail=f"{found.probe_count} vs {grid.probe_count}",
            ),
            ShapeCheck(
                f"{system}: bisection offers less load than the oracle",
                passed=sum(bisect_rates) < sum(grid_rates),
                detail=f"bisect {'+'.join(map(str, bisect_rates))} = {sum(bisect_rates)}"
                f" < grid {'+'.join(map(str, grid_rates))} = {sum(grid_rates)}"
                " payloads/s per client",
            ),
        ]
    return checks
