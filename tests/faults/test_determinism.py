"""Determinism guarantees of the faults subsystem.

Two invariants keep fault runs comparable and healthy runs calibrated:

* Running the same seeded config with the same fault plan twice yields
  byte-identical metrics and resilience reports.
* A run with an empty (or absent) fault plan is identical to a run of
  the faults-unaware pipeline: installing nothing perturbs nothing.
"""

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.faults import FaultPlan


def run_unit(fault_plan):
    config = BenchmarkConfig(
        system="fabric",
        iel="DoNothing",
        rate_limit=50,
        scale=0.02,
        seed=7,
        fault_plan=fault_plan,
    )
    result = BenchmarkRunner(keep_last_rig=False).run(config)
    reports = {phase: pr.resilience_report() for phase, pr in result.phases.items()}
    return result, {phase: report for phase, report in reports.items() if report}


def metrics_dicts(result):
    return {
        phase: [m.to_dict() for m in pr.repetitions]
        for phase, pr in result.phases.items()
    }


class TestDeterminism:
    def test_same_plan_twice_is_identical(self):
        plan = FaultPlan().kill_leader(at=0.5).restart("leader", at=1.5)
        first, first_res = run_unit(plan)
        second, second_res = run_unit(
            FaultPlan().kill_leader(at=0.5).restart("leader", at=1.5)
        )
        assert metrics_dicts(first) == metrics_dicts(second)
        assert {p: r.to_dict() for p, r in first_res.items()} == {
            p: r.to_dict() for p, r in second_res.items()
        }
        assert first_res  # the fault run did produce reports

    def test_empty_plan_matches_no_plan(self):
        # An installed-but-empty plan must not touch the RNG, the event
        # queue, or the fault_mode flag: byte-identical healthy metrics.
        with_none, res_none = run_unit(None)
        with_empty, res_empty = run_unit(FaultPlan())
        assert metrics_dicts(with_none) == metrics_dicts(with_empty)
        assert res_none == {} and res_empty == {}

    def test_faulted_run_differs_from_healthy(self):
        # Sanity: the injector does perturb the run when armed.
        healthy, _ = run_unit(None)
        faulted, reports = run_unit(
            FaultPlan().kill_leader(at=0.5).restart("leader", at=1.5)
        )
        assert metrics_dicts(healthy) != metrics_dicts(faulted)
        assert reports
