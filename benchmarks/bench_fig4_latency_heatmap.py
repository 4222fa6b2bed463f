"""Regenerates Figure 4: the heat map under emulated WAN latency.

Same configurations as Figure 3 plus netem (normal, mu=12 ms). The paper
prints the complete grid; the checks target its headline effects: Fabric
loses 33-40% (orderer round trips), BitShares' multi-op benchmarks drop,
Corda OS/Quorum/Sawtooth/Diem barely react, and the Corda failure cells
stay failed.
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.figures import FIG4_PAPER_CELLS
from repro.experiments.registry import build_experiment


def test_fig4_latency_heatmap(benchmark):
    fig3 = build_experiment("fig3")
    fig4 = build_experiment("fig4")

    def run_both():
        base = fig3.run(iels=("DoNothing",))
        latency = fig4.run()
        return base, latency

    base, run = run_once(benchmark, run_both)
    print()
    print(run.render())

    def mtps(phase, system):
        return run.cell(phase, system).mtps.mean

    checks = [
        ShapeCheck(
            "Fabric DoNothing drops 33-40% under latency (Section 5.8.1)",
            passed=mtps("DoNothing", "fabric")
            < 0.85 * base.cell("DoNothing", "fabric").mtps.mean,
            detail=f"{base.cell('DoNothing', 'fabric').mtps.mean:.0f} -> "
                   f"{mtps('DoNothing', 'fabric'):.0f}",
        ),
        ShapeCheck(
            "Corda OS hardly reacts to latency",
            passed=mtps("DoNothing", "corda_os")
            > 0.6 * base.cell("DoNothing", "corda_os").mtps.mean,
            detail=f"{base.cell('DoNothing', 'corda_os').mtps.mean:.2f} -> "
                   f"{mtps('DoNothing', 'corda_os'):.2f}",
        ),
        ShapeCheck(
            "Quorum hardly reacts to latency",
            passed=mtps("DoNothing", "quorum")
            > 0.7 * base.cell("DoNothing", "quorum").mtps.mean,
            detail=f"{base.cell('DoNothing', 'quorum').mtps.mean:.0f} -> "
                   f"{mtps('DoNothing', 'quorum'):.0f}",
        ),
        ShapeCheck(
            "BitShares DoNothing stays near full rate (paper: 1589)",
            passed=mtps("DoNothing", "bitshares") > 1200,
            detail=f"{mtps('DoNothing', 'bitshares'):.0f}",
        ),
        ShapeCheck.factor(
            "Diem DoNothing near paper's 94.12", mtps("DoNothing", "diem"),
            FIG4_PAPER_CELLS[("DoNothing", "diem")].mtps or 94.12, 2.0,
        ),
        ShapeCheck.factor(
            "Sawtooth DoNothing near paper's 102.74", mtps("DoNothing", "sawtooth"),
            FIG4_PAPER_CELLS[("DoNothing", "sawtooth")].mtps or 102.74, 1.8,
        ),
        ShapeCheck.failure_mode(
            "Corda OS Get still fails", run.cell("Get", "corda_os").received.mean,
            expect_failure=True,
        ),
        ShapeCheck(
            "Corda SendPayment (both editions) effectively fails "
            "(paper: 0.00 under latency)",
            passed=run.cell("SendPayment", "corda_os").mtps.mean < 1.0
            and run.cell("SendPayment", "corda_enterprise").mtps.mean < 3.0,
            detail=f"OS={run.cell('SendPayment', 'corda_os').mtps.mean:.2f} "
                   f"Ent={run.cell('SendPayment', 'corda_enterprise').mtps.mean:.2f}",
        ),
        ShapeCheck.ordering(
            "per-system DoNothing ordering preserved under latency",
            [
                (1589.30, mtps("DoNothing", "bitshares")),
                (898.78, mtps("DoNothing", "fabric")),
                (605.04, mtps("DoNothing", "quorum")),
                (102.74, mtps("DoNothing", "sawtooth")),
                (94.12, mtps("DoNothing", "diem")),
                (64.76, mtps("DoNothing", "corda_enterprise")),
                (7.22, mtps("DoNothing", "corda_os")),
            ],
            tolerance=0.15,
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
