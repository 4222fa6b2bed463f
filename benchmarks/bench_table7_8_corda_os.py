"""Regenerates Tables 7-8: Corda OS, KeyValue-Set.

Paper shape: ~4 MTPS at RL=20 degrading to ~1 MTPS at RL=160 (overload
makes it *slower*), three-digit MFLS, and the overwhelming majority of
transactions lost.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.registry import build_experiment


def test_table7_8_corda_os(benchmark):
    experiment = build_experiment("table7_8")
    run = run_once(benchmark, experiment.run)
    print()
    print(run.render())

    low = run.case("RL=20").phase_result
    high = run.case("RL=160").phase_result
    checks = [
        ShapeCheck.factor("RL=20 MTPS near paper's 4.08", low.mtps.mean, 4.08, factor=2.0),
        ShapeCheck.factor("RL=160 MTPS near paper's 1.04", high.mtps.mean, 1.04, factor=2.5),
        ShapeCheck(
            "overload degrades throughput (RL=160 < RL=20)",
            passed=high.mtps.mean < low.mtps.mean,
            detail=f"{high.mtps.mean:.2f} < {low.mtps.mean:.2f}",
        ),
        ShapeCheck(
            "most transactions lost at both loads",
            passed=low.loss_fraction > 0.5 and high.loss_fraction > 0.9,
            detail=f"loss {low.loss_fraction:.0%} / {high.loss_fraction:.0%}",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
