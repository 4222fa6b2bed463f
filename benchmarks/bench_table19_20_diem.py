"""Regenerates Tables 19-20: Diem, KeyValue-Get.

Paper shape: tens of MTPS at best, MFLS near 100 s (the deep mempool),
heavy losses everywhere, max_block_size=2000 clearly ahead of 100, and
rising load *lowering* throughput.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.registry import build_experiment


def test_table19_20_diem(benchmark):
    experiment = build_experiment("table19_20")
    run = run_once(benchmark, experiment.run)
    print()
    print(run.render())

    small_low = run.case("RL=200 BS=100").phase_result
    small_high = run.case("RL=1600 BS=100").phase_result
    large_low = run.case("RL=200 BS=2000").phase_result
    large_high = run.case("RL=1600 BS=2000").phase_result
    checks = [
        ShapeCheck.factor(
            "RL=200 BS=2000 MTPS near paper's 64.2", large_low.mtps.mean, 64.22, factor=2.0
        ),
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
            passed=all(
                cell.loss_fraction > 0.5
                for cell in (small_low, small_high, large_low, large_high)
            ),
            detail="loss "
            + "/".join(
                f"{cell.loss_fraction:.0%}"
                for cell in (small_low, small_high, large_low, large_high)
            ),
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
