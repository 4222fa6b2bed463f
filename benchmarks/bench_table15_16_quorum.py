"""Regenerates Tables 15-16: Quorum, BankingApp-Balance.

Paper shape: total liveness failure at blockperiod 2 s with RL=400 (zero
received, empty blocks), against ~365 MTPS at blockperiod 5 s.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.registry import build_experiment


def test_table15_16_quorum(benchmark):
    experiment = build_experiment("table15_16")
    run = run_once(benchmark, experiment.run)
    print()
    print(run.render())

    stalled = run.case("RL=400 BP=2s").phase_result
    healthy = run.case("RL=400 BP=5s").phase_result
    checks = [
        ShapeCheck.failure_mode(
            "BP=2s: total failure (paper: 0.00 MTPS, empty blocks)",
            stalled.received.mean, expect_failure=True,
        ),
        ShapeCheck.factor("BP=5s MTPS near paper's 365.85", healthy.mtps.mean, 365.85, factor=1.3),
        ShapeCheck(
            "BP=5s loses transactions to the bounded txpool (paper: 42% lost)",
            passed=healthy.loss_fraction > 0.05,
            detail=f"loss {healthy.loss_fraction:.2%}",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
