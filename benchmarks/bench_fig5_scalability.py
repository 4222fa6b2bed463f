"""Regenerates Figure 5: DoNothing MTPS at 8, 16 and 32 nodes.

Paper shape (Section 5.8.2): BitShares stays flat; Corda OS declines and
fails completely at 32 nodes; Corda Enterprise, Quorum and Diem show a
downward trend; Fabric and Sawtooth work at 8 nodes but fail at 16 and
32 (no client confirmations / everything stuck pending).
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.experiments.figures import ScalabilityExperiment


def test_fig5_scalability(benchmark):
    experiment = ScalabilityExperiment()
    run = run_once(benchmark, experiment.run)
    print()
    print(run.render())

    def mtps(system, n):
        return run.mtps(system, n)

    def received(system, n):
        return run.cells[(system, n)].received.mean

    checks = [
        ShapeCheck(
            "BitShares flat across 8/16/32 (witness count fixed)",
            passed=mtps("bitshares", 32) > 0.8 * mtps("bitshares", 8),
            detail=f"{mtps('bitshares', 8):.0f} / {mtps('bitshares', 16):.0f} / "
                   f"{mtps('bitshares', 32):.0f}",
        ),
        ShapeCheck.failure_mode(
            "Fabric fails at 16 nodes (clients get no confirmations)",
            received("fabric", 16), expect_failure=True,
        ),
        ShapeCheck.failure_mode(
            "Fabric fails at 32 nodes", received("fabric", 32), expect_failure=True,
        ),
        ShapeCheck.failure_mode(
            "Fabric still works at 8 nodes", received("fabric", 8), expect_failure=False,
        ),
        ShapeCheck.failure_mode(
            "Sawtooth fails at 16 nodes (stuck pending)",
            received("sawtooth", 16), expect_failure=True,
        ),
        ShapeCheck.failure_mode(
            "Sawtooth fails at 32 nodes", received("sawtooth", 32), expect_failure=True,
        ),
        ShapeCheck.failure_mode(
            "Sawtooth still works at 8 nodes", received("sawtooth", 8), expect_failure=False,
        ),
        ShapeCheck(
            "Corda OS declines with size and is (near-)dead at 32 "
            "(paper: all DoNothing runs fail)",
            passed=mtps("corda_os", 32) < 0.35 * max(mtps("corda_os", 8), 1e-9)
            and mtps("corda_os", 32) < 1.0,
            detail=f"{mtps('corda_os', 8):.2f} -> {mtps('corda_os', 32):.2f}",
        ),
        ShapeCheck(
            "Corda Enterprise declines but keeps working",
            passed=received("corda_enterprise", 32) > 0
            and mtps("corda_enterprise", 32) < mtps("corda_enterprise", 8),
            detail=f"{mtps('corda_enterprise', 8):.1f} -> "
                   f"{mtps('corda_enterprise', 32):.1f}",
        ),
        ShapeCheck(
            "Quorum trends downward from 8 nodes",
            passed=mtps("quorum", 32) < mtps("quorum", 8),
            detail=f"{mtps('quorum', 8):.0f} -> {mtps('quorum', 32):.0f}",
        ),
        ShapeCheck(
            "Diem trends downward from 8 nodes",
            passed=mtps("diem", 32) < mtps("diem", 8),
            detail=f"{mtps('diem', 8):.1f} -> {mtps('diem', 32):.1f}",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
