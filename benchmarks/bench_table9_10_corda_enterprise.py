"""Regenerates Tables 9-10: Corda Enterprise, KeyValue-Set.

Paper shape: ~13 MTPS *flat* across rate limiters (bounded flow backlog),
MFLS in the tens of seconds, and an order of magnitude faster than
Corda OS.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.registry import build_experiment


def test_table9_10_corda_enterprise(benchmark):
    experiment = build_experiment("table9_10")
    run = run_once(benchmark, experiment.run)
    print()
    print(run.render())

    low = run.case("RL=20").phase_result
    high = run.case("RL=160").phase_result
    checks = [
        ShapeCheck.factor("RL=20 MTPS near paper's 12.84", low.mtps.mean, 12.84, factor=1.6),
        ShapeCheck.factor("RL=160 MTPS near paper's 13.51", high.mtps.mean, 13.51, factor=1.6),
        ShapeCheck(
            "throughput flat across rate limiters (paper: 12.84 vs 13.51)",
            passed=abs(high.mtps.mean - low.mtps.mean) < 0.35 * max(low.mtps.mean, 1e-9),
            detail=f"{low.mtps.mean:.2f} vs {high.mtps.mean:.2f}",
        ),
        ShapeCheck(
            "MFLS stays bounded (paper: 22.8 - 31.6 s band, not runaway)",
            passed=high.mfls.mean < 3.0 * max(low.mfls.mean, 1e-9),
            detail=f"{low.mfls.mean:.1f}s vs {high.mfls.mean:.1f}s",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
