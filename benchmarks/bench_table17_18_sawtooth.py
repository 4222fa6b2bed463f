"""Regenerates Tables 17-18: Sawtooth, BankingApp-CreateAccount.

Paper shape: ~67 MTPS at RL=200 collapsing to ~15 at RL=1600 (admission
thrash), block_publishing_delay making no significant difference, and
massive queue-rejection losses at every load.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.registry import build_experiment


def test_table17_18_sawtooth(benchmark):
    experiment = build_experiment("table17_18")
    run = run_once(benchmark, experiment.run)
    print()
    print(run.render())

    low_pd1 = run.case("RL=200 PD=1s").phase_result
    high_pd1 = run.case("RL=1600 PD=1s").phase_result
    low_pd10 = run.case("RL=200 PD=10s").phase_result
    high_pd10 = run.case("RL=1600 PD=10s").phase_result
    checks = [
        ShapeCheck.factor("RL=200 PD=1 MTPS near paper's 66.7", low_pd1.mtps.mean, 66.70, factor=1.5),
        ShapeCheck.factor("RL=1600 PD=1 MTPS near paper's 14.3", high_pd1.mtps.mean, 14.27, factor=2.0),
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
    print(render_checks(checks))
    assert all(check.passed for check in checks)
