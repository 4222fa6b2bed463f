"""Tests for the parameter-sweep experiment machinery."""

import pytest

from repro.experiments.sweeps import SWEEPS, ParameterSweep, build_sweep


class TestSweepDefinitions:
    def test_all_table56_parameters_covered(self):
        assert set(SWEEPS) == {
            "sweep_fabric_mm", "sweep_diem_bs", "sweep_bitshares_bi",
            "sweep_quorum_bp", "sweep_sawtooth_pd",
            "sweep_bitshares_ops", "sweep_sawtooth_batch",
        }

    def test_unknown_sweep(self):
        with pytest.raises(KeyError):
            build_sweep("sweep_bitcoin_difficulty")

    def test_paper_values_match_tables_5_and_6(self):
        assert tuple(build_sweep("sweep_fabric_mm").values) == (100, 500, 1000, 2000)
        assert tuple(build_sweep("sweep_diem_bs").values) == (100, 500, 1000, 2000)
        assert tuple(build_sweep("sweep_bitshares_bi").values) == (1.0, 2.0, 5.0, 10.0)
        assert tuple(build_sweep("sweep_quorum_bp").values) == (1.0, 2.0, 5.0, 10.0)
        assert tuple(build_sweep("sweep_sawtooth_pd").values) == (1.0, 2.0, 5.0, 10.0)
        assert tuple(build_sweep("sweep_bitshares_ops").values) == (1, 50, 100)
        assert tuple(build_sweep("sweep_sawtooth_batch").values) == (1, 50, 100)


class TestSweepExecution:
    def test_small_sweep_runs(self):
        sweep = ParameterSweep(
            sweep_id="mini",
            title="mini MM sweep",
            parameter="MaxMessageCount",
            values=(50, 200),
            config_kwargs=dict(system="fabric", iel="DoNothing", rate_limit=50, seed=5),
            phase="DoNothing",
        )
        run = sweep.run(scale=0.02)
        assert len(run.points) == 2
        assert all(point.phase_result.mtps.mean > 0 for point in run.points)
        assert 0.0 <= run.spread() <= 1.0
        rendered = run.render()
        assert "MaxMessageCount=50" in rendered
        assert "spread=" in rendered

    def test_config_field_sweep(self):
        sweep = ParameterSweep(
            sweep_id="mini-ops",
            title="mini ops sweep",
            parameter="ops_per_transaction",
            values=(1, 10),
            config_kwargs=dict(system="bitshares", iel="DoNothing", rate_limit=50,
                               params={"block_interval": 1.0}, seed=5),
            phase="DoNothing",
            is_system_param=False,
        )
        run = sweep.run(scale=0.02)
        assert [point.value for point in run.points] == [1, 10]

    def test_overlapping_values_dispatch_one_unit(self):
        """Duplicate grid points must collapse to one executed unit."""
        from repro.parallel.executor import Executor

        sweep = ParameterSweep(
            sweep_id="mini-dup",
            title="mini duplicate sweep",
            parameter="block_interval",
            values=(1.0, 2.0, 1.0),
            config_kwargs=dict(system="bitshares", iel="DoNothing",
                               rate_limit=25, seed=7),
            phase="DoNothing",
        )
        executor = Executor()
        run = sweep.run(executor=executor, scale=0.02)
        assert executor.ran == 2
        # All three points still report, and the duplicates share a result.
        assert [point.value for point in run.points] == [1.0, 2.0, 1.0]
        assert (run.points[0].phase_result.mtps.mean
                == run.points[2].phase_result.mtps.mean)

    def test_spread_of_failures_is_zero_safe(self):
        from repro.coconut.metrics import PhaseMetrics
        from repro.coconut.results import PhaseResult
        from repro.experiments.sweeps import SweepPoint, SweepRun

        dead = PhaseResult(phase="x", repetitions=[PhaseMetrics(
            phase="x", repetition=0, expected=10, received=0, failed=0,
            t_first_send=0, t_last_receive=0, duration=0, tps=0, mean_fls=0,
        )])
        run = SweepRun("s", "t", "p", [SweepPoint(1, dead)])
        assert run.spread() == 0.0
