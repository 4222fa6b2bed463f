"""Regenerates Tables 13-14: Fabric, BankingApp-SendPayment, MM=100.

Paper shape: the full 800 payloads/s confirmed with sub-second MFLS; at
1600 payloads/s throughput saturates near 1300 MTPS, latency jumps to
seconds, and a noticeable share of transactions is lost.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.registry import build_experiment


def test_table13_14_fabric(benchmark):
    experiment = build_experiment("table13_14")
    run = run_once(benchmark, experiment.run)
    print()
    print(run.render())

    low = run.case("RL=800 MM=100").phase_result
    high = run.case("RL=1600 MM=100").phase_result
    checks = [
        ShapeCheck.factor("RL=800 MTPS near paper's 801", low.mtps.mean, 801.36, factor=1.2),
        ShapeCheck.factor("RL=1600 MTPS near paper's 1285", high.mtps.mean, 1285.29, factor=1.35),
        ShapeCheck(
            "RL=800 is loss-free with sub-second MFLS (paper: 0.22 s)",
            passed=low.loss_fraction < 0.01 and low.mfls.mean < 1.0,
            detail=f"loss {low.loss_fraction:.2%}, MFLS={low.mfls.mean:.2f}s",
        ),
        ShapeCheck(
            "RL=1600 saturates: losses appear and MFLS jumps (paper: 15% lost, 6.7 s)",
            passed=high.loss_fraction > 0.05 and high.mfls.mean > 5 * low.mfls.mean,
            detail=f"loss {high.loss_fraction:.2%}, MFLS={high.mfls.mean:.2f}s",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
