"""Regenerates Figure 3: the best-MTPS heat map (no added latency).

Seven systems x six benchmarks at their best configurations. The paper
prints only selected cell values in prose; the embedded ones are checked
by factor, and the between-system ordering on DoNothing — the paper's
headline comparison — must hold exactly.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.registry import build_experiment


def test_fig3_heatmap(benchmark):
    experiment = build_experiment("fig3")
    run = run_once(benchmark, experiment.run)
    print()
    print(run.render())

    def mtps(phase, system):
        return run.cell(phase, system).mtps.mean

    checks = [
        # The paper's DoNothing ordering: BitShares ~1600 > Fabric ~1461 >
        # Quorum ~774 > Sawtooth ~103 ~ Diem ~96 > Corda Ent ~65 > OS ~7.
        ShapeCheck.ordering(
            "DoNothing MTPS ordering across systems",
            [
                (1599.89, mtps("DoNothing", "bitshares")),
                (1461.05, mtps("DoNothing", "fabric")),
                (773.60, mtps("DoNothing", "quorum")),
                (103.47, mtps("DoNothing", "sawtooth")),
                (96.40, mtps("DoNothing", "diem")),
                (64.64, mtps("DoNothing", "corda_enterprise")),
                (7.18, mtps("DoNothing", "corda_os")),
            ],
            tolerance=0.15,
        ),
        ShapeCheck.factor("BitShares DoNothing", mtps("DoNothing", "bitshares"), 1599.89, 1.3),
        ShapeCheck.factor("Fabric DoNothing", mtps("DoNothing", "fabric"), 1461.05, 1.4),
        ShapeCheck.factor("Quorum DoNothing", mtps("DoNothing", "quorum"), 773.60, 1.4),
        ShapeCheck.factor("Sawtooth DoNothing", mtps("DoNothing", "sawtooth"), 103.47, 1.6),
        ShapeCheck.factor("Diem DoNothing", mtps("DoNothing", "diem"), 96.40, 2.0),
        ShapeCheck.factor("Corda Ent DoNothing", mtps("DoNothing", "corda_enterprise"), 64.64, 1.7),
        ShapeCheck.factor("Corda OS DoNothing", mtps("DoNothing", "corda_os"), 7.18, 2.5),
        ShapeCheck.failure_mode(
            "Corda OS KeyValue-Get fails completely (Section 5.1)",
            run.cell("Get", "corda_os").received.mean,
            expect_failure=True,
        ),
        ShapeCheck(
            "Fabric wins most stateful benchmarks (Section 5.4)",
            passed=all(
                mtps(phase, "fabric")
                >= max(
                    mtps(phase, s)
                    for s in ("quorum", "sawtooth", "diem", "corda_enterprise", "corda_os")
                )
                for phase in ("Set", "Get", "SendPayment", "Balance")
            ),
            detail="Fabric vs non-BitShares systems on Set/Get/SendPayment/Balance",
        ),
        ShapeCheck(
            "BitShares SendPayment collapses vs its DoNothing (Section 5.3)",
            passed=mtps("SendPayment", "bitshares") < 0.2 * mtps("DoNothing", "bitshares"),
            detail=f"{mtps('SendPayment', 'bitshares'):.1f} vs "
                   f"{mtps('DoNothing', 'bitshares'):.1f}",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
