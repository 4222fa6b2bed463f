"""The paper's per-system result tables (Tables 7-20).

Each experiment pairs the paper's printed rows (MTPS/MFLS from the odd
tables, received/expected NoT from the even ones) with the benchmark
configuration that produced them. Rate limiters are per client; the
tables' RL column is the aggregate over the four clients, so e.g. the
paper's "RL = 160" is ``rate_limit=40``.

Beside each experiment sit its shape checks: the paper's claims about
that table (which load is faster, which loads lose transactions) as
:class:`~repro.analysis.compare.ShapeCheck` objects over one run.
Factor checks compare against the case's own :class:`PaperValue`.
"""

from __future__ import annotations

import typing

from repro.analysis.compare import ShapeCheck
from repro.experiments.base import Case, CaseResult, Experiment, ExperimentRun, PaperValue


def _near_paper(name: str, result: CaseResult, factor: float) -> ShapeCheck:
    """The case's measured MTPS within ``x factor`` of the paper's."""
    return ShapeCheck.factor(name, result.measured_mtps, result.case.paper.mtps, factor=factor)


def table7_8_corda_os() -> Experiment:
    """Tables 7-8: Corda OS, KeyValue-Set."""
    return Experiment(
        "table7_8",
        "Tables 7-8: Corda OS - KeyValue-Set (MTPS/MFLS and NoT)",
        [
            Case(
                case_id="RL=20",
                config_kwargs=dict(system="corda_os", iel="KeyValue", rate_limit=5,
                                   phases=("Set",), seed=78),
                phase="Set",
                paper=PaperValue(mtps=4.08, mfls=151.93, received=1439.0, expected=6000.0),
            ),
            Case(
                case_id="RL=160",
                config_kwargs=dict(system="corda_os", iel="KeyValue", rate_limit=40,
                                   phases=("Set",), seed=78),
                phase="Set",
                paper=PaperValue(mtps=1.04, mfls=227.39, received=374.33, expected=48000.0),
            ),
        ],
    )


def table7_8_checks(run: ExperimentRun) -> typing.List[ShapeCheck]:
    """~4 MTPS at RL=20 degrading to ~1 at RL=160 (overload makes Corda OS
    *slower*), and the overwhelming majority of transactions lost."""
    low, high = run.case("RL=20"), run.case("RL=160")
    low_cell, high_cell = low.phase_result, high.phase_result
    return [
        _near_paper("RL=20 MTPS near paper's 4.08", low, factor=2.0),
        _near_paper("RL=160 MTPS near paper's 1.04", high, factor=2.5),
        ShapeCheck(
            "overload degrades throughput (RL=160 < RL=20)",
            passed=high_cell.mtps.mean < low_cell.mtps.mean,
            detail=f"{high_cell.mtps.mean:.2f} < {low_cell.mtps.mean:.2f}",
        ),
        ShapeCheck(
            "most transactions lost at both loads",
            passed=low_cell.loss_fraction > 0.5 and high_cell.loss_fraction > 0.9,
            detail=f"loss {low_cell.loss_fraction:.0%} / {high_cell.loss_fraction:.0%}",
        ),
    ]


def table9_10_corda_enterprise() -> Experiment:
    """Tables 9-10: Corda Enterprise, KeyValue-Set."""
    return Experiment(
        "table9_10",
        "Tables 9-10: Corda Enterprise - KeyValue-Set (MTPS/MFLS and NoT)",
        [
            Case(
                case_id="RL=20",
                config_kwargs=dict(system="corda_enterprise", iel="KeyValue", rate_limit=5,
                                   phases=("Set",), seed=910),
                phase="Set",
                paper=PaperValue(mtps=12.84, mfls=22.81, received=4249.67, expected=6000.0),
            ),
            Case(
                case_id="RL=160",
                config_kwargs=dict(system="corda_enterprise", iel="KeyValue", rate_limit=40,
                                   phases=("Set",), seed=910),
                phase="Set",
                paper=PaperValue(mtps=13.51, mfls=31.59, received=4571.0, expected=48000.0),
            ),
        ],
    )


def table9_10_checks(run: ExperimentRun) -> typing.List[ShapeCheck]:
    """~13 MTPS *flat* across rate limiters (bounded flow backlog) with
    MFLS in the tens of seconds, not runaway."""
    low, high = run.case("RL=20"), run.case("RL=160")
    low_cell, high_cell = low.phase_result, high.phase_result
    return [
        _near_paper("RL=20 MTPS near paper's 12.84", low, factor=1.6),
        _near_paper("RL=160 MTPS near paper's 13.51", high, factor=1.6),
        ShapeCheck(
            "throughput flat across rate limiters (paper: 12.84 vs 13.51)",
            passed=abs(high_cell.mtps.mean - low_cell.mtps.mean)
            < 0.35 * max(low_cell.mtps.mean, 1e-9),
            detail=f"{low_cell.mtps.mean:.2f} vs {high_cell.mtps.mean:.2f}",
        ),
        ShapeCheck(
            "MFLS stays bounded (paper: 22.8 - 31.6 s band, not runaway)",
            passed=high_cell.mfls.mean < 3.0 * max(low_cell.mfls.mean, 1e-9),
            detail=f"{low_cell.mfls.mean:.1f}s vs {high_cell.mfls.mean:.1f}s",
        ),
    ]


def table11_12_bitshares() -> Experiment:
    """Tables 11-12: BitShares, DoNothing, 100 operations per transaction."""
    return Experiment(
        "table11_12",
        "Tables 11-12: BitShares - DoNothing at RL=1600, block_interval=1s, 100 ops/tx",
        [
            Case(
                case_id="RL=1600 BI=1s",
                config_kwargs=dict(system="bitshares", iel="DoNothing", rate_limit=400,
                                   params={"block_interval": 1.0},
                                   ops_per_transaction=100, seed=1112),
                phase="DoNothing",
                paper=PaperValue(mtps=1599.89, mfls=1.09, received=487966.67, expected=480000.0),
            ),
        ],
    )


def table11_12_checks(run: ExperimentRun) -> typing.List[ShapeCheck]:
    """The full 1600 payloads/s sustained with no lost transactions, and
    MFLS right at the 1 s block interval."""
    result = run.case("RL=1600 BI=1s")
    cell = result.phase_result
    return [
        _near_paper("MTPS near paper's 1599.89", result, factor=1.2),
        ShapeCheck(
            "no lost transactions (paper: all 480k received)",
            passed=cell.loss_fraction < 0.01,
            detail=f"loss {cell.loss_fraction:.2%}",
        ),
        ShapeCheck(
            "MFLS tracks the 1 s block interval (paper: 1.09 s)",
            passed=0.5 <= cell.mfls.mean <= 3.0,
            detail=f"MFLS={cell.mfls.mean:.2f}s",
        ),
    ]


def table13_14_fabric() -> Experiment:
    """Tables 13-14: Fabric, BankingApp-SendPayment, MaxMessageCount=100."""
    common = dict(system="fabric", iel="BankingApp",
                  params={"MaxMessageCount": 100}, seed=1314)
    return Experiment(
        "table13_14",
        "Tables 13-14: Fabric - BankingApp-SendPayment at MM=100",
        [
            Case(
                case_id="RL=800 MM=100",
                config_kwargs=dict(rate_limit=200, **common),
                phase="SendPayment",
                paper=PaperValue(mtps=801.36, mfls=0.22, received=240140.67, expected=240000.0),
            ),
            Case(
                case_id="RL=1600 MM=100",
                config_kwargs=dict(rate_limit=400, **common),
                phase="SendPayment",
                paper=PaperValue(mtps=1285.29, mfls=6.66, received=408749.0, expected=480000.0),
            ),
        ],
    )


def table13_14_checks(run: ExperimentRun) -> typing.List[ShapeCheck]:
    """All 800 payloads/s confirmed with sub-second MFLS; at 1600
    throughput saturates near 1300 MTPS, latency jumps to seconds and a
    noticeable share of transactions is lost."""
    low, high = run.case("RL=800 MM=100"), run.case("RL=1600 MM=100")
    low_cell, high_cell = low.phase_result, high.phase_result
    return [
        _near_paper("RL=800 MTPS near paper's 801", low, factor=1.2),
        _near_paper("RL=1600 MTPS near paper's 1285", high, factor=1.35),
        ShapeCheck(
            "RL=800 is loss-free with sub-second MFLS (paper: 0.22 s)",
            passed=low_cell.loss_fraction < 0.01 and low_cell.mfls.mean < 1.0,
            detail=f"loss {low_cell.loss_fraction:.2%}, MFLS={low_cell.mfls.mean:.2f}s",
        ),
        ShapeCheck(
            "RL=1600 saturates: losses appear and MFLS jumps (paper: 15% lost, 6.7 s)",
            passed=high_cell.loss_fraction > 0.05
            and high_cell.mfls.mean > 5 * low_cell.mfls.mean,
            detail=f"loss {high_cell.loss_fraction:.2%}, MFLS={high_cell.mfls.mean:.2f}s",
        ),
    ]


def table15_16_quorum() -> Experiment:
    """Tables 15-16: Quorum, BankingApp-Balance, the blockperiod stall."""
    common = dict(system="quorum", iel="BankingApp", rate_limit=100, seed=1516)
    return Experiment(
        "table15_16",
        "Tables 15-16: Quorum - BankingApp-Balance at RL=400 (liveness failure at BP<=2)",
        [
            Case(
                case_id="RL=400 BP=2s",
                config_kwargs=dict(params={"istanbul.blockperiod": 2.0}, **common),
                phase="Balance",
                paper=PaperValue(mtps=0.0, mfls=0.0, received=0.0, expected=120000.0),
            ),
            Case(
                case_id="RL=400 BP=5s",
                config_kwargs=dict(params={"istanbul.blockperiod": 5.0}, **common),
                phase="Balance",
                paper=PaperValue(mtps=365.85, mfls=12.34, received=69476.33, expected=120000.0),
            ),
        ],
    )


def table15_16_checks(run: ExperimentRun) -> typing.List[ShapeCheck]:
    """Total liveness failure at blockperiod 2 s (zero received, empty
    blocks) against ~365 MTPS at blockperiod 5 s."""
    stalled, healthy = run.case("RL=400 BP=2s"), run.case("RL=400 BP=5s")
    return [
        ShapeCheck.failure_mode(
            "BP=2s: total failure (paper: 0.00 MTPS, empty blocks)",
            stalled.phase_result.received.mean, expect_failure=True,
        ),
        _near_paper("BP=5s MTPS near paper's 365.85", healthy, factor=1.3),
        ShapeCheck(
            "BP=5s loses transactions to the bounded txpool (paper: 42% lost)",
            passed=healthy.phase_result.loss_fraction > 0.05,
            detail=f"loss {healthy.phase_result.loss_fraction:.2%}",
        ),
    ]


def table17_18_sawtooth() -> Experiment:
    """Tables 17-18: Sawtooth, BankingApp-CreateAccount, 100 txs/batch."""
    common = dict(system="sawtooth", iel="BankingApp", txs_per_batch=100,
                  phases=("CreateAccount",), seed=1718)
    return Experiment(
        "table17_18",
        "Tables 17-18: Sawtooth - BankingApp-CreateAccount (queue backpressure)",
        [
            Case(
                case_id="RL=200 PD=1s",
                config_kwargs=dict(rate_limit=50,
                                   params={"block_publishing_delay": 1.0}, **common),
                phase="CreateAccount",
                paper=PaperValue(mtps=66.70, mfls=26.40, received=23033.33, expected=60000.0),
            ),
            Case(
                case_id="RL=1600 PD=1s",
                config_kwargs=dict(rate_limit=400,
                                   params={"block_publishing_delay": 1.0}, **common),
                phase="CreateAccount",
                paper=PaperValue(mtps=14.27, mfls=238.45, received=4666.67, expected=480000.0),
            ),
            Case(
                case_id="RL=200 PD=10s",
                config_kwargs=dict(rate_limit=50,
                                   params={"block_publishing_delay": 10.0}, **common),
                phase="CreateAccount",
                paper=PaperValue(mtps=67.57, mfls=25.84, received=23266.67, expected=60000.0),
            ),
            Case(
                case_id="RL=1600 PD=10s",
                config_kwargs=dict(rate_limit=400,
                                   params={"block_publishing_delay": 10.0}, **common),
                phase="CreateAccount",
                paper=PaperValue(mtps=15.65, mfls=225.73, received=5133.33, expected=480000.0),
            ),
        ],
    )


def table17_18_checks(run: ExperimentRun) -> typing.List[ShapeCheck]:
    """~67 MTPS at RL=200 collapsing to ~15 at RL=1600 (admission thrash),
    block_publishing_delay making no significant difference, and massive
    queue-rejection losses at every load."""
    low, high = run.case("RL=200 PD=1s"), run.case("RL=1600 PD=1s")
    low_pd1, high_pd1 = low.phase_result, high.phase_result
    low_pd10 = run.case("RL=200 PD=10s").phase_result
    high_pd10 = run.case("RL=1600 PD=10s").phase_result
    return [
        _near_paper("RL=200 PD=1 MTPS near paper's 66.7", low, factor=1.5),
        _near_paper("RL=1600 PD=1 MTPS near paper's 14.3", high, factor=2.0),
        ShapeCheck(
            "more load, less throughput (paper: 66.7 -> 14.3)",
            passed=high_pd1.mtps.mean < 0.5 * low_pd1.mtps.mean,
            detail=f"{low_pd1.mtps.mean:.1f} -> {high_pd1.mtps.mean:.1f}",
        ),
        ShapeCheck(
            "block_publishing_delay makes no significant difference",
            passed=abs(low_pd10.mtps.mean - low_pd1.mtps.mean)
            < 0.35 * max(low_pd1.mtps.mean, 1e-9)
            and abs(high_pd10.mtps.mean - high_pd1.mtps.mean)
            < 0.6 * max(high_pd1.mtps.mean, 1e-9),
            detail=f"PD1 {low_pd1.mtps.mean:.1f}/{high_pd1.mtps.mean:.1f} vs "
                   f"PD10 {low_pd10.mtps.mean:.1f}/{high_pd10.mtps.mean:.1f}",
        ),
        ShapeCheck(
            "queue rejections dominate losses at both loads",
            passed=low_pd1.loss_fraction > 0.3 and high_pd1.loss_fraction > 0.9,
            detail=f"loss {low_pd1.loss_fraction:.0%} / {high_pd1.loss_fraction:.0%}",
        ),
    ]


def table19_20_diem() -> Experiment:
    """Tables 19-20: Diem, KeyValue-Get, max_block_size sweep."""
    common = dict(system="diem", iel="KeyValue", seed=1920)
    return Experiment(
        "table19_20",
        "Tables 19-20: Diem - KeyValue-Get (deep mempool, spiking)",
        [
            Case(
                case_id="RL=200 BS=100",
                config_kwargs=dict(rate_limit=50, params={"max_block_size": 100}, **common),
                phase="Get",
                paper=PaperValue(mfls=67.97, received=7365.33, expected=60000.0),
                # BS=100 drains the Set backlog at only ~35 payloads/s, so
                # Get confirmations start late in the listen window.
            ),
            Case(
                case_id="RL=1600 BS=100",
                config_kwargs=dict(rate_limit=400, params={"max_block_size": 100}, **common),
                phase="Get",
                paper=PaperValue(mtps=11.83, mfls=81.30, received=3887.67, expected=480000.0),
            ),
            Case(
                case_id="RL=200 BS=2000",
                config_kwargs=dict(rate_limit=50, params={"max_block_size": 2000}, **common),
                phase="Get",
                paper=PaperValue(mtps=64.22, mfls=107.78, received=16752.67, expected=60000.0),
            ),
            Case(
                case_id="RL=1600 BS=2000",
                config_kwargs=dict(rate_limit=400, params={"max_block_size": 2000}, **common),
                phase="Get",
                paper=PaperValue(mtps=36.65, mfls=150.35, received=11172.67, expected=480000.0),
            ),
        ],
    )


def table19_20_checks(run: ExperimentRun) -> typing.List[ShapeCheck]:
    """Tens of MTPS at best, MFLS near 100 s (the deep mempool), heavy
    losses everywhere, max_block_size=2000 clearly ahead of 100, and
    rising load *lowering* throughput."""
    best = run.case("RL=200 BS=2000")
    small_low = run.case("RL=200 BS=100").phase_result
    small_high = run.case("RL=1600 BS=100").phase_result
    large_low = best.phase_result
    large_high = run.case("RL=1600 BS=2000").phase_result
    cells = (small_low, small_high, large_low, large_high)
    return [
        _near_paper("RL=200 BS=2000 MTPS near paper's 64.2", best, factor=2.0),
        ShapeCheck(
            "larger blocks win (paper: BS=2000 over BS=100 at both loads)",
            passed=large_low.mtps.mean > small_low.mtps.mean
            and large_high.mtps.mean >= small_high.mtps.mean,
            detail=f"BS2000 {large_low.mtps.mean:.1f}/{large_high.mtps.mean:.1f} vs "
                   f"BS100 {small_low.mtps.mean:.1f}/{small_high.mtps.mean:.1f}",
        ),
        ShapeCheck(
            "more load, less throughput (paper: 64.2 -> 36.7 at BS=2000)",
            passed=large_high.mtps.mean < large_low.mtps.mean,
            detail=f"{large_low.mtps.mean:.1f} -> {large_high.mtps.mean:.1f}",
        ),
        ShapeCheck(
            "deep-mempool latency: MFLS beyond 40 s where transactions confirm",
            passed=large_low.mfls.mean > 40.0,
            detail=f"MFLS={large_low.mfls.mean:.1f}s",
        ),
        ShapeCheck(
            "heavy losses at every setting (paper: 72-99% lost)",
            passed=all(cell.loss_fraction > 0.5 for cell in cells),
            detail="loss " + "/".join(f"{cell.loss_fraction:.0%}" for cell in cells),
        ),
    ]


#: All result-table experiments, in paper order.
TABLE_BUILDERS: typing.Dict[str, typing.Callable[[], Experiment]] = {
    "table7_8": table7_8_corda_os,
    "table9_10": table9_10_corda_enterprise,
    "table11_12": table11_12_bitshares,
    "table13_14": table13_14_fabric,
    "table15_16": table15_16_quorum,
    "table17_18": table17_18_sawtooth,
    "table19_20": table19_20_diem,
}

#: Each result table's shape checks, keyed like :data:`TABLE_BUILDERS`.
TABLE_CHECKS: typing.Dict[str, typing.Callable[[ExperimentRun], typing.List[ShapeCheck]]] = {
    "table7_8": table7_8_checks,
    "table9_10": table9_10_checks,
    "table11_12": table11_12_checks,
    "table13_14": table13_14_checks,
    "table15_16": table15_16_checks,
    "table17_18": table17_18_checks,
    "table19_20": table19_20_checks,
}
