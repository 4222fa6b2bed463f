"""The paper's figures: the two heat maps (Figs. 3, 4) and scalability (Fig. 5).

Figure 3 shows, per system and benchmark, the best MTPS with the
corresponding MFLS and duration; Figure 4 repeats the same
configurations under the emulated European WAN latency (netem, mu=12 ms);
Figure 5 scales the DoNothing benchmark to 8/16/32 nodes.

The full Figure 4 cell grid is printed in the paper and embedded below;
for Figure 3 only the values quoted in Section 5's prose are available.
Each figure's shape checks sit beside its definition and read the paper
numbers from those tables.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.compare import ShapeCheck
from repro.chains.registry import SYSTEM_LABELS, SYSTEM_NAMES
from repro.coconut.config import BenchmarkConfig, unit_for_iel
from repro.coconut.results import PhaseResult
from repro.experiments.base import PaperValue

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.latency import LatencyModel
    from repro.parallel.executor import Executor

#: The benchmark rows of the heat maps, in figure order.
BENCHMARK_ROWS: typing.Tuple[typing.Tuple[str, str], ...] = (
    ("DoNothing", "DoNothing"),
    ("KeyValue", "Set"),
    ("KeyValue", "Get"),
    ("BankingApp", "CreateAccount"),
    ("BankingApp", "SendPayment"),
    ("BankingApp", "Balance"),
)


def best_config_kwargs(system: str) -> typing.Dict[str, object]:
    """The per-system configuration behind the heat maps' best cells.

    Derived from Section 5: Corda at its (reduced) rate limiters,
    BitShares at 100 ops/tx with block_interval 1 s, Fabric at RL=1600,
    Quorum at blockperiod 5 s, Sawtooth at 100 txs/batch, Diem at
    max_block_size 2000 and RL=200.
    """
    if system == "corda_os":
        return dict(rate_limit=5)
    if system == "corda_enterprise":
        return dict(rate_limit=40)
    if system == "bitshares":
        return dict(rate_limit=400, params={"block_interval": 1.0}, ops_per_transaction=100)
    if system == "fabric":
        return dict(rate_limit=400, params={"MaxMessageCount": 2000})
    if system == "quorum":
        return dict(rate_limit=400, params={"istanbul.blockperiod": 5.0})
    if system == "sawtooth":
        return dict(rate_limit=50, params={"block_publishing_delay": 1.0}, txs_per_batch=100)
    if system == "diem":
        return dict(rate_limit=50, params={"max_block_size": 2000})
    raise KeyError(f"unknown system {system!r}")


def best_config_variants(system: str, iel: str) -> typing.List[typing.Dict[str, object]]:
    """Configuration variants whose per-phase best fills a figure cell.

    The figures show the *best* value per benchmark, and for BitShares
    the best configuration differs within the BankingApp unit: 100
    ops/tx maximises CreateAccount, but chained payments packed into one
    transaction interact and are discarded wholesale, so SendPayment and
    Balance peak at one operation per transaction (Section 5.3).
    """
    base = best_config_kwargs(system)
    if system == "bitshares" and iel == "BankingApp":
        single_op = dict(base)
        single_op["ops_per_transaction"] = 1
        return [base, single_op]
    return [base]


def recommended_scale(system: str) -> float:
    """Window scale that keeps a system's dynamics observable."""
    return {
        "corda_os": 0.25,
        "corda_enterprise": 0.25,
        "sawtooth": 0.2,
        "diem": 0.6,
        "quorum": 0.15,
    }.get(system, 0.1)


@dataclasses.dataclass
class GridRun:
    """Results of one heat-map experiment."""

    experiment_id: str
    title: str
    #: (phase, system) -> result.
    cells: typing.Dict[typing.Tuple[str, str], PhaseResult]
    paper_cells: typing.Dict[typing.Tuple[str, str], PaperValue]
    systems: typing.Tuple[str, ...]

    def cell(self, phase: str, system: str) -> PhaseResult:
        """One grid cell's result."""
        return self.cells[(phase, system)]

    def render(self) -> str:
        """The heat-map grid plus paper-vs-measured MTPS comparison."""
        from repro.coconut.report import format_table, heatmap

        grid = heatmap(
            {
                (phase, SYSTEM_LABELS[system]): result
                for (phase, system), result in self.cells.items()
            },
            row_labels=[phase for __, phase in BENCHMARK_ROWS],
            column_labels=[SYSTEM_LABELS[s] for s in self.systems],
        )
        rows = []
        for (phase, system), paper in sorted(self.paper_cells.items()):
            if (phase, system) not in self.cells:
                continue
            measured = self.cells[(phase, system)]
            rows.append(
                [
                    f"{SYSTEM_LABELS[system]} {phase}",
                    paper.describe(),
                    f"MTPS={measured.mtps.mean:.2f} MFLS={measured.mfls.mean:.2f}s",
                ]
            )
        comparison = format_table(["Cell", "Paper", "Measured"], rows)
        return f"{self.title}\n{grid}\n\nPaper comparison:\n{comparison}"


class HeatmapExperiment:
    """Figures 3 and 4: the benchmarks x systems grid."""

    def __init__(
        self,
        experiment_id: str,
        title: str,
        latency: typing.Optional["LatencyModel"],
        paper_cells: typing.Dict[typing.Tuple[str, str], PaperValue],
    ) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.latency = latency
        self.paper_cells = paper_cells

    def run(
        self,
        systems: typing.Optional[typing.Sequence[str]] = None,
        iels: typing.Optional[typing.Sequence[str]] = None,
        scale: typing.Optional[float] = None,
        repetitions: int = 1,
        seed: int = 34,
        executor: typing.Optional["Executor"] = None,
    ) -> GridRun:
        """Run one unit per (system, IEL) and collect every phase."""
        if executor is None:
            from repro.parallel.executor import Executor

            executor = Executor()
        systems = tuple(systems or SYSTEM_NAMES)
        iels = tuple(iels or ("DoNothing", "KeyValue", "BankingApp"))
        specs: typing.List[typing.Tuple[str, str, BenchmarkConfig]] = []
        for system in systems:
            for iel in iels:
                for kwargs in best_config_variants(system, iel):
                    config = BenchmarkConfig(
                        system=system,
                        iel=iel,
                        latency=self.latency,
                        scale=scale if scale is not None else recommended_scale(system),
                        repetitions=repetitions,
                        seed=seed,
                        **kwargs,
                    )
                    specs.append((system, iel, config))
        units = [o.result for o in executor.run_units([c for __, __, c in specs])]
        cells: typing.Dict[typing.Tuple[str, str], PhaseResult] = {}
        for (system, iel, __), unit in zip(specs, units):
            for phase in unit_for_iel(iel):
                candidate = unit.phase(phase)
                incumbent = cells.get((phase, system))
                if incumbent is None or candidate.mtps.mean > incumbent.mtps.mean:
                    cells[(phase, system)] = candidate
        return GridRun(
            experiment_id=self.experiment_id,
            title=self.title,
            cells=cells,
            paper_cells=self.paper_cells,
            systems=systems,
        )


#: Figure 3 values quoted in Section 5's prose (best MTPS per system).
FIG3_PAPER_CELLS: typing.Dict[typing.Tuple[str, str], PaperValue] = {
    ("DoNothing", "corda_os"): PaperValue(mtps=7.18),
    ("DoNothing", "corda_enterprise"): PaperValue(mtps=64.64),
    ("DoNothing", "bitshares"): PaperValue(mtps=1599.89, mfls=1.09),
    ("DoNothing", "fabric"): PaperValue(mtps=1461.05),
    ("DoNothing", "quorum"): PaperValue(mtps=773.60, mfls=10.32),
    ("DoNothing", "sawtooth"): PaperValue(mtps=103.47),
    ("DoNothing", "diem"): PaperValue(mtps=96.40),
    ("Set", "corda_os"): PaperValue(mtps=4.08, mfls=151.93),
    ("Set", "corda_enterprise"): PaperValue(mtps=13.51, mfls=31.59),
    ("Get", "corda_os"): PaperValue(mtps=0.0),
    ("SendPayment", "fabric"): PaperValue(mtps=1285.29, mfls=6.66),
    ("Balance", "quorum"): PaperValue(mtps=365.85, mfls=12.34),
    ("SendPayment", "sawtooth"): PaperValue(mtps=16.32),
    ("Get", "diem"): PaperValue(mtps=64.22, mfls=107.78),
}

#: Figure 4's full printed grid (MTPS, MFLS, Duration per cell).
FIG4_PAPER_CELLS: typing.Dict[typing.Tuple[str, str], PaperValue] = {
    ("DoNothing", "corda_os"): PaperValue(7.22, 114.23, 348.67),
    ("DoNothing", "corda_enterprise"): PaperValue(64.76, 3.36, 303.00),
    ("DoNothing", "bitshares"): PaperValue(1589.30, 1.53, 389.33),
    ("DoNothing", "fabric"): PaperValue(898.78, 2.06, 310.33),
    ("DoNothing", "quorum"): PaperValue(605.04, 10.43, 313.00),
    ("DoNothing", "sawtooth"): PaperValue(102.74, 21.73, 97.33),
    ("DoNothing", "diem"): PaperValue(94.12, 95.91, 330.00),
    ("Set", "corda_os"): PaperValue(4.34, 214.59, 369.33),
    ("Set", "corda_enterprise"): PaperValue(13.49, 31.12, 337.67),
    ("Set", "bitshares"): PaperValue(654.12, 8.23, 393.33),
    ("Set", "fabric"): PaperValue(866.64, 0.48, 310.33),
    ("Set", "quorum"): PaperValue(243.13, 14.06, 315.00),
    ("Set", "sawtooth"): PaperValue(88.55, 17.94, 343.33),
    ("Set", "diem"): PaperValue(70.50, 103.67, 322.00),
    ("Get", "corda_os"): PaperValue(0.00, 0.00, 0.00),
    ("Get", "corda_enterprise"): PaperValue(3.09, 120.59, 357.33),
    ("Get", "bitshares"): PaperValue(579.45, 7.64, 389.00),
    ("Get", "fabric"): PaperValue(885.24, 0.44, 310.00),
    ("Get", "quorum"): PaperValue(338.46, 13.27, 209.00),
    ("Get", "sawtooth"): PaperValue(76.86, 11.38, 55.00),
    ("Get", "diem"): PaperValue(67.99, 112.26, 316.00),
    ("CreateAccount", "corda_os"): PaperValue(6.89, 117.16, 349.67),
    ("CreateAccount", "corda_enterprise"): PaperValue(61.92, 3.56, 302.67),
    ("CreateAccount", "bitshares"): PaperValue(1046.87, 3.81, 388.67),
    ("CreateAccount", "fabric"): PaperValue(872.52, 2.48, 311.00),
    ("CreateAccount", "quorum"): PaperValue(258.05, 13.93, 315.67),
    ("CreateAccount", "sawtooth"): PaperValue(64.83, 27.39, 346.00),
    ("CreateAccount", "diem"): PaperValue(74.27, 93.13, 324.33),
    ("SendPayment", "corda_os"): PaperValue(0.00, 0.00, 0.00),
    ("SendPayment", "corda_enterprise"): PaperValue(0.00, 0.00, 0.00),
    ("SendPayment", "bitshares"): PaperValue(6.62, 173.50, 356.00),
    ("SendPayment", "fabric"): PaperValue(866.30, 2.70, 308.33),
    ("SendPayment", "quorum"): PaperValue(320.10, 13.40, 254.33),
    ("SendPayment", "sawtooth"): PaperValue(15.02, 26.04, 338.33),
    ("SendPayment", "diem"): PaperValue(56.82, 128.95, 319.00),
    ("Balance", "corda_os"): PaperValue(0.28, 138.34, 400.67),
    ("Balance", "corda_enterprise"): PaperValue(0.00, 0.00, 0.00),
    ("Balance", "bitshares"): PaperValue(9.96, 148.48, 369.33),
    ("Balance", "fabric"): PaperValue(883.65, 2.48, 307.00),
    ("Balance", "quorum"): PaperValue(362.50, 12.83, 224.67),
    ("Balance", "sawtooth"): PaperValue(30.24, 15.84, 121.00),
    ("Balance", "diem"): PaperValue(46.16, 148.83, 307.00),
}


def fig3_heatmap() -> HeatmapExperiment:
    """Figure 3: best MTPS/MFLS/Duration, no added latency."""
    return HeatmapExperiment(
        "fig3",
        "Figure 3: best MTPS per benchmark and system (data-centre latency)",
        latency=None,
        paper_cells=FIG3_PAPER_CELLS,
    )


#: Systems in the paper's DoNothing MTPS order, fastest first (Figs. 3, 4).
DONOTHING_ORDER: typing.Tuple[str, ...] = (
    "bitshares", "fabric", "quorum", "sawtooth", "diem", "corda_enterprise", "corda_os",
)


def _donothing_ordering(
    name: str,
    run: GridRun,
    paper_cells: typing.Dict[typing.Tuple[str, str], PaperValue],
    tolerance: float,
) -> ShapeCheck:
    """The run's DoNothing MTPS in the order ``paper_cells`` gives them."""
    return ShapeCheck.ordering(
        name,
        [
            (paper_cells[("DoNothing", system)].mtps, run.cell("DoNothing", system).mtps.mean)
            for system in DONOTHING_ORDER
        ],
        tolerance=tolerance,
    )


def fig3_checks(run: GridRun) -> typing.List[ShapeCheck]:
    """The paper's headline comparison: the DoNothing ordering across
    systems holds exactly and each DoNothing cell is near the prose
    value; Corda OS fails KeyValue-Get, Fabric wins the stateful
    benchmarks and BitShares SendPayment collapses."""

    def mtps(phase: str, system: str) -> float:
        return run.cell(phase, system).mtps.mean

    checks = [
        # BitShares ~1600 > Fabric ~1461 > Quorum ~774 > Sawtooth ~103
        # ~ Diem ~96 > Corda Ent ~65 > OS ~7.
        _donothing_ordering("DoNothing MTPS ordering across systems", run,
                            FIG3_PAPER_CELLS, tolerance=0.15),
    ]
    for name, system, factor in (
        ("BitShares DoNothing", "bitshares", 1.3),
        ("Fabric DoNothing", "fabric", 1.4),
        ("Quorum DoNothing", "quorum", 1.4),
        ("Sawtooth DoNothing", "sawtooth", 1.6),
        ("Diem DoNothing", "diem", 2.0),
        ("Corda Ent DoNothing", "corda_enterprise", 1.7),
        ("Corda OS DoNothing", "corda_os", 2.5),
    ):
        checks.append(ShapeCheck.factor(
            name, mtps("DoNothing", system), FIG3_PAPER_CELLS[("DoNothing", system)].mtps, factor,
        ))
    return checks + [
        ShapeCheck.failure_mode(
            "Corda OS KeyValue-Get fails completely (Section 5.1)",
            run.cell("Get", "corda_os").received.mean,
            expect_failure=True,
        ),
        ShapeCheck(
            "Fabric wins most stateful benchmarks (Section 5.4)",
            passed=all(
                mtps(phase, "fabric")
                >= max(
                    mtps(phase, s)
                    for s in ("quorum", "sawtooth", "diem", "corda_enterprise", "corda_os")
                )
                for phase in ("Set", "Get", "SendPayment", "Balance")
            ),
            detail="Fabric vs non-BitShares systems on Set/Get/SendPayment/Balance",
        ),
        ShapeCheck(
            "BitShares SendPayment collapses vs its DoNothing (Section 5.3)",
            passed=mtps("SendPayment", "bitshares") < 0.2 * mtps("DoNothing", "bitshares"),
            detail=f"{mtps('SendPayment', 'bitshares'):.1f} vs "
                   f"{mtps('DoNothing', 'bitshares'):.1f}",
        ),
    ]


def fig4_latency_heatmap() -> HeatmapExperiment:
    """Figure 4: the same grid under netem latency (mu = 12 ms)."""
    from repro.net.latency import EUROPEAN_WAN_LATENCY

    return HeatmapExperiment(
        "fig4",
        "Figure 4: best-config grid under emulated European WAN latency",
        latency=EUROPEAN_WAN_LATENCY,
        paper_cells=FIG4_PAPER_CELLS,
    )


def fig4_checks(run: GridRun, fig3: GridRun) -> typing.List[ShapeCheck]:
    """Figure 4's headline effects against ``fig3``'s DoNothing cells (the
    same configurations without netem): Fabric loses 33-40% to orderer
    round trips, Corda OS and Quorum barely react, the Corda failure
    cells stay failed and the per-system ordering holds."""

    def mtps(phase: str, system: str) -> float:
        return run.cell(phase, system).mtps.mean

    def base(system: str) -> float:
        return fig3.cell("DoNothing", system).mtps.mean

    return [
        ShapeCheck(
            "Fabric DoNothing drops 33-40% under latency (Section 5.8.1)",
            passed=mtps("DoNothing", "fabric") < 0.85 * base("fabric"),
            detail=f"{base('fabric'):.0f} -> {mtps('DoNothing', 'fabric'):.0f}",
        ),
        ShapeCheck(
            "Corda OS hardly reacts to latency",
            passed=mtps("DoNothing", "corda_os") > 0.6 * base("corda_os"),
            detail=f"{base('corda_os'):.2f} -> {mtps('DoNothing', 'corda_os'):.2f}",
        ),
        ShapeCheck(
            "Quorum hardly reacts to latency",
            passed=mtps("DoNothing", "quorum") > 0.7 * base("quorum"),
            detail=f"{base('quorum'):.0f} -> {mtps('DoNothing', 'quorum'):.0f}",
        ),
        ShapeCheck(
            "BitShares DoNothing stays near full rate (paper: 1589)",
            passed=mtps("DoNothing", "bitshares") > 1200,
            detail=f"{mtps('DoNothing', 'bitshares'):.0f}",
        ),
        ShapeCheck.factor(
            "Diem DoNothing near paper's 94.12", mtps("DoNothing", "diem"),
            FIG4_PAPER_CELLS[("DoNothing", "diem")].mtps, 2.0,
        ),
        ShapeCheck.factor(
            "Sawtooth DoNothing near paper's 102.74", mtps("DoNothing", "sawtooth"),
            FIG4_PAPER_CELLS[("DoNothing", "sawtooth")].mtps, 1.8,
        ),
        ShapeCheck.failure_mode(
            "Corda OS Get still fails", run.cell("Get", "corda_os").received.mean,
            expect_failure=True,
        ),
        ShapeCheck(
            "Corda SendPayment (both editions) effectively fails (paper: 0.00 under latency)",
            passed=mtps("SendPayment", "corda_os") < 1.0
            and mtps("SendPayment", "corda_enterprise") < 3.0,
            detail=f"OS={mtps('SendPayment', 'corda_os'):.2f} "
                   f"Ent={mtps('SendPayment', 'corda_enterprise'):.2f}",
        ),
        _donothing_ordering("per-system DoNothing ordering preserved under latency", run,
                            FIG4_PAPER_CELLS, tolerance=0.15),
    ]


@dataclasses.dataclass
class ScalabilityRun:
    """Results of the Figure 5 experiment."""

    #: (system, node_count) -> result.
    cells: typing.Dict[typing.Tuple[str, int], PhaseResult]
    node_counts: typing.Tuple[int, ...]
    systems: typing.Tuple[str, ...]

    def mtps(self, system: str, node_count: int) -> float:
        """Measured MTPS of one cell."""
        return self.cells[(system, node_count)].mtps.mean

    def render(self) -> str:
        """A node-count x system MTPS table (log-style, like Fig. 5)."""
        from repro.coconut.report import format_table

        headers = ["System"] + [f"n={n}" for n in self.node_counts]
        rows = []
        for system in self.systems:
            row = [SYSTEM_LABELS[system]]
            for node_count in self.node_counts:
                result = self.cells.get((system, node_count))
                if result is None or result.received.mean == 0:
                    row.append("FAIL")
                else:
                    row.append(f"{result.mtps.mean:.2f}")
            rows.append(row)
        return "Figure 5: DoNothing MTPS vs network size\n" + format_table(headers, rows)


#: Paper Figure 5 expectations (Section 5.8.2, qualitative).
FIG5_EXPECTATIONS: typing.Dict[str, str] = {
    "corda_os": "declines with n; fails completely at 32 nodes",
    "corda_enterprise": "declines with n, keeps working",
    "bitshares": "flat - marginal fluctuations only",
    "fabric": "works at 8, fails at 16 and 32 (no client confirmations)",
    "quorum": "downward trend from 8 nodes",
    "sawtooth": "works at 8, fails at 16 and 32 (stuck pending)",
    "diem": "downward trend from 8 nodes",
}


class ScalabilityExperiment:
    """Figure 5: DoNothing across 8/16/32 nodes (netem latency)."""

    experiment_id = "fig5"

    def run(
        self,
        systems: typing.Optional[typing.Sequence[str]] = None,
        node_counts: typing.Sequence[int] = (8, 16, 32),
        scale: typing.Optional[float] = None,
        seed: int = 58,
        executor: typing.Optional["Executor"] = None,
    ) -> ScalabilityRun:
        """Run DoNothing at each network size (same settings as 5.8.1)."""
        from repro.net.latency import EUROPEAN_WAN_LATENCY

        if executor is None:
            from repro.parallel.executor import Executor

            executor = Executor()
        systems = tuple(systems or SYSTEM_NAMES)
        specs: typing.List[typing.Tuple[str, int, BenchmarkConfig]] = []
        for system in systems:
            for node_count in node_counts:
                config = BenchmarkConfig(
                    system=system,
                    iel="DoNothing",
                    latency=EUROPEAN_WAN_LATENCY,
                    node_count=node_count,
                    scale=scale if scale is not None else recommended_scale(system),
                    repetitions=1,
                    seed=seed,
                    **best_config_kwargs(system),
                )
                specs.append((system, node_count, config))
        units = [o.result for o in executor.run_units([c for __, __, c in specs])]
        cells: typing.Dict[typing.Tuple[str, int], PhaseResult] = {}
        for (system, node_count, __), unit in zip(specs, units):
            cells[(system, node_count)] = unit.phase("DoNothing")
        return ScalabilityRun(cells=cells, node_counts=tuple(node_counts), systems=systems)


def fig5_checks(run: ScalabilityRun) -> typing.List[ShapeCheck]:
    """Section 5.8.2: BitShares stays flat; Corda OS declines and fails at
    32 nodes; Corda Enterprise, Quorum and Diem trend downward; Fabric
    and Sawtooth work at 8 nodes but fail at 16 and 32."""
    mtps = run.mtps

    def received(system: str, n: int) -> float:
        return run.cells[(system, n)].received.mean

    return [
        ShapeCheck(
            "BitShares flat across 8/16/32 (witness count fixed)",
            passed=mtps("bitshares", 32) > 0.8 * mtps("bitshares", 8),
            detail=f"{mtps('bitshares', 8):.0f} / {mtps('bitshares', 16):.0f} / "
                   f"{mtps('bitshares', 32):.0f}",
        ),
        ShapeCheck.failure_mode(
            "Fabric fails at 16 nodes (clients get no confirmations)",
            received("fabric", 16), expect_failure=True,
        ),
        ShapeCheck.failure_mode(
            "Fabric fails at 32 nodes", received("fabric", 32), expect_failure=True,
        ),
        ShapeCheck.failure_mode(
            "Fabric still works at 8 nodes", received("fabric", 8), expect_failure=False,
        ),
        ShapeCheck.failure_mode(
            "Sawtooth fails at 16 nodes (stuck pending)",
            received("sawtooth", 16), expect_failure=True,
        ),
        ShapeCheck.failure_mode(
            "Sawtooth fails at 32 nodes", received("sawtooth", 32), expect_failure=True,
        ),
        ShapeCheck.failure_mode(
            "Sawtooth still works at 8 nodes", received("sawtooth", 8), expect_failure=False,
        ),
        ShapeCheck(
            "Corda OS declines with size and is (near-)dead at 32 (paper: all DoNothing runs fail)",
            passed=mtps("corda_os", 32) < 0.35 * max(mtps("corda_os", 8), 1e-9)
            and mtps("corda_os", 32) < 1.0,
            detail=f"{mtps('corda_os', 8):.2f} -> {mtps('corda_os', 32):.2f}",
        ),
        ShapeCheck(
            "Corda Enterprise declines but keeps working",
            passed=received("corda_enterprise", 32) > 0
            and mtps("corda_enterprise", 32) < mtps("corda_enterprise", 8),
            detail=f"{mtps('corda_enterprise', 8):.1f} -> "
                   f"{mtps('corda_enterprise', 32):.1f}",
        ),
        ShapeCheck(
            "Quorum trends downward from 8 nodes",
            passed=mtps("quorum", 32) < mtps("quorum", 8),
            detail=f"{mtps('quorum', 8):.0f} -> {mtps('quorum', 32):.0f}",
        ),
        ShapeCheck(
            "Diem trends downward from 8 nodes",
            passed=mtps("diem", 32) < mtps("diem", 8),
            detail=f"{mtps('diem', 8):.1f} -> {mtps('diem', 32):.1f}",
        ),
    ]
