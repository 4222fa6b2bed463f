"""The paper's per-system result tables (Tables 7-20).

Each experiment pairs the paper's printed rows (MTPS/MFLS from the odd
tables, received/expected NoT from the even ones) with the benchmark
configuration that produced them. Rate limiters are per client; the
tables' RL column is the aggregate over the four clients, so e.g. the
paper's "RL = 160" is ``rate_limit=40``.
"""

from __future__ import annotations

import typing

from repro.experiments.base import Case, Experiment, PaperValue


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
                recommended_scale=0.25,
            ),
            Case(
                case_id="RL=160",
                config_kwargs=dict(system="corda_os", iel="KeyValue", rate_limit=40,
                                   phases=("Set",), seed=78),
                phase="Set",
                paper=PaperValue(mtps=1.04, mfls=227.39, received=374.33, expected=48000.0),
                recommended_scale=0.25,
            ),
        ],
    )


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
                recommended_scale=0.25,
            ),
            Case(
                case_id="RL=160",
                config_kwargs=dict(system="corda_enterprise", iel="KeyValue", rate_limit=40,
                                   phases=("Set",), seed=910),
                phase="Set",
                paper=PaperValue(mtps=13.51, mfls=31.59, received=4571.0, expected=48000.0),
                recommended_scale=0.25,
            ),
        ],
    )


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
                recommended_scale=0.1,
            ),
        ],
    )


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
                recommended_scale=0.1,
            ),
            Case(
                case_id="RL=1600 MM=100",
                config_kwargs=dict(rate_limit=400, **common),
                phase="SendPayment",
                paper=PaperValue(mtps=1285.29, mfls=6.66, received=408749.0, expected=480000.0),
                recommended_scale=0.1,
            ),
        ],
    )


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
                recommended_scale=0.15,
            ),
            Case(
                case_id="RL=400 BP=5s",
                config_kwargs=dict(params={"istanbul.blockperiod": 5.0}, **common),
                phase="Balance",
                paper=PaperValue(mtps=365.85, mfls=12.34, received=69476.33, expected=120000.0),
                recommended_scale=0.15,
            ),
        ],
    )


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
                recommended_scale=0.2,
            ),
            Case(
                case_id="RL=1600 PD=1s",
                config_kwargs=dict(rate_limit=400,
                                   params={"block_publishing_delay": 1.0}, **common),
                phase="CreateAccount",
                paper=PaperValue(mtps=14.27, mfls=238.45, received=4666.67, expected=480000.0),
                recommended_scale=0.2,
            ),
            Case(
                case_id="RL=200 PD=10s",
                config_kwargs=dict(rate_limit=50,
                                   params={"block_publishing_delay": 10.0}, **common),
                phase="CreateAccount",
                paper=PaperValue(mtps=67.57, mfls=25.84, received=23266.67, expected=60000.0),
                recommended_scale=0.2,
            ),
            Case(
                case_id="RL=1600 PD=10s",
                config_kwargs=dict(rate_limit=400,
                                   params={"block_publishing_delay": 10.0}, **common),
                phase="CreateAccount",
                paper=PaperValue(mtps=15.65, mfls=225.73, received=5133.33, expected=480000.0),
                recommended_scale=0.2,
            ),
        ],
    )


def table19_20_diem() -> Experiment:
    """Tables 19-20: Diem, KeyValue-Get, max_block_size sweep.

    Diem's ~100 s finalization latencies only fit near-full windows, so
    these cases recommend scale 0.6.
    """
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
                # Get confirmations start very late; they need a nearly
                # full window to be observable.
                recommended_scale=0.8,
                window_note="not observable at this scale, see REPRO_FULL_SCALE=1",
            ),
            Case(
                case_id="RL=1600 BS=100",
                config_kwargs=dict(rate_limit=400, params={"max_block_size": 100}, **common),
                phase="Get",
                paper=PaperValue(mtps=11.83, mfls=81.30, received=3887.67, expected=480000.0),
                recommended_scale=0.6,
                window_note="not observable at this scale, see REPRO_FULL_SCALE=1",
            ),
            Case(
                case_id="RL=200 BS=2000",
                config_kwargs=dict(rate_limit=50, params={"max_block_size": 2000}, **common),
                phase="Get",
                paper=PaperValue(mtps=64.22, mfls=107.78, received=16752.67, expected=60000.0),
                recommended_scale=0.6,
            ),
            Case(
                case_id="RL=1600 BS=2000",
                config_kwargs=dict(rate_limit=400, params={"max_block_size": 2000}, **common),
                phase="Get",
                paper=PaperValue(mtps=36.65, mfls=150.35, received=11172.67, expected=480000.0),
                recommended_scale=0.6,
            ),
        ],
    )


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
