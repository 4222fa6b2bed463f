"""Regenerates Tables 11-12: BitShares, DoNothing, 100 ops/transaction.

Paper shape: the full offered load of 1600 payloads/s is sustained with
no lost transactions, and MFLS sits right at the 1 s block interval.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.registry import build_experiment


def test_table11_12_bitshares(benchmark):
    experiment = build_experiment("table11_12")
    run = run_once(benchmark, experiment.run)
    print()
    print(run.render())

    cell = run.case("RL=1600 BI=1s").phase_result
    checks = [
        ShapeCheck.factor("MTPS near paper's 1599.89", cell.mtps.mean, 1599.89, factor=1.2),
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
    print(render_checks(checks))
    assert all(check.passed for check in checks)
