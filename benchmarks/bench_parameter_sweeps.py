"""Regenerates the Table 5/6 parameter evaluation behind Section 6's
"parameter impact" lesson.

Paper: parameters play "a rather minor role in the systems Fabric,
Sawtooth and Diem", while "BitShares and especially Quorum show
advantages of adapting block finalization parameters". The bundle-size
sweeps (operations per transaction, transactions per batch) matter a
great deal for BitShares and Sawtooth throughput.
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.sweeps import build_sweep


@pytest.mark.parametrize(
    "sweep_id, max_spread",
    [
        ("sweep_fabric_mm", 0.35),
        ("sweep_sawtooth_pd", 0.35),
    ],
)
def test_minor_parameters(benchmark, sweep_id, max_spread):
    """Fabric's MaxMessageCount and Sawtooth's publishing delay barely move."""
    sweep = build_sweep(sweep_id)
    run = run_once(benchmark, sweep.run)
    print()
    print(run.render())
    check = ShapeCheck(
        f"{sweep_id}: MTPS spread stays minor (paper Section 6)",
        passed=run.spread() <= max_spread,
        detail=f"spread={run.spread():.2f} over {run.mtps_values()}",
    )
    print(render_checks([check]))
    assert check.passed


def test_quorum_blockperiod_is_decisive(benchmark):
    """Quorum's blockperiod makes the difference between dead and alive."""
    sweep = build_sweep("sweep_quorum_bp")
    run = run_once(benchmark, sweep.run)
    print()
    print(run.render())
    by_value = {point.value: point.phase_result for point in run.points}
    checks = [
        ShapeCheck.failure_mode(
            "BP=1s fails under RL=400", by_value[1.0].received.mean, expect_failure=True
        ),
        ShapeCheck.failure_mode(
            "BP=2s fails under RL=400", by_value[2.0].received.mean, expect_failure=True
        ),
        ShapeCheck(
            "BP=5s and BP=10s stay alive",
            passed=by_value[5.0].mtps.mean > 100 and by_value[10.0].mtps.mean > 100,
            detail=f"{by_value[5.0].mtps.mean:.0f} / {by_value[10.0].mtps.mean:.0f}",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)


def test_bitshares_block_interval_sets_latency(benchmark):
    """MFLS tracks the block interval; throughput is unaffected."""
    sweep = build_sweep("sweep_bitshares_bi")
    run = run_once(benchmark, sweep.run)
    print()
    print(run.render())
    mfls = [point.phase_result.mfls.mean for point in run.points]
    checks = [
        ShapeCheck(
            "latency grows monotonically with block_interval",
            passed=all(a < b for a, b in zip(mfls, mfls[1:])),
            detail=f"MFLS={['%.1f' % v for v in mfls]}",
        ),
        ShapeCheck(
            "throughput barely moves",
            passed=run.spread() < 0.25,
            detail=f"spread={run.spread():.2f}",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)


def test_bundle_size_sweeps(benchmark):
    """Ops/tx (BitShares) and txs/batch (Sawtooth) gate throughput."""
    def run_both():
        return (
            build_sweep("sweep_bitshares_ops").run(),
            build_sweep("sweep_sawtooth_batch").run(),
        )

    ops_run, batch_run = run_once(benchmark, run_both)
    print()
    print(ops_run.render())
    print()
    print(batch_run.render())
    ops = {point.value: point.phase_result.mtps.mean for point in ops_run.points}
    batches = {point.value: point.phase_result.mtps.mean for point in batch_run.points}
    checks = [
        ShapeCheck(
            "BitShares: 1 op/tx caps near 590 payloads/s (Section 5.3)",
            passed=450 <= ops[1] <= 700,
            detail=f"{ops[1]:.0f}",
        ),
        ShapeCheck(
            "BitShares: 100 ops/tx sustain the full offered 1600/s",
            passed=ops[100] > 1400,
            detail=f"{ops[100]:.0f}",
        ),
        ShapeCheck(
            "Sawtooth: 1 tx/batch caps in the 26-35 band (Section 5.6)",
            passed=18 <= batches[1] <= 45,
            detail=f"{batches[1]:.1f}",
        ),
        ShapeCheck(
            "Sawtooth: 100 txs/batch several times faster",
            passed=batches[100] > 2 * batches[1],
            detail=f"{batches[1]:.1f} -> {batches[100]:.1f}",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
