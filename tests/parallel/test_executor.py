"""Parallel-vs-serial equivalence: the subsystem's acceptance bar.

For any jobs count, per-unit results must be byte-identical to a direct
``BenchmarkRunner`` run — each unit owns its seeded RNG streams, so
fan-out cannot change anything. These tests assert that for the
executor, for ``Experiment.run``/``ParameterSweep.run``/
``ResilienceExperiment.run``, and across cold/warm cache passes.
"""

import pytest

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.experiments.base import Case, Experiment
from repro.experiments.resilience import resilience_leader_crash
from repro.experiments.sweeps import ParameterSweep
from repro.parallel import Executor, ResultCache


def make_configs():
    """Three mixed-system units, cheap enough to run repeatedly."""
    return [
        BenchmarkConfig(system="fabric", iel="DoNothing", rate_limit=50,
                        scale=0.02, repetitions=1, seed=7),
        BenchmarkConfig(system="quorum", iel="DoNothing", rate_limit=50,
                        scale=0.02, repetitions=1, seed=8),
        BenchmarkConfig(system="bitshares", iel="DoNothing", rate_limit=50,
                        params={"block_interval": 1.0},
                        scale=0.02, repetitions=1, seed=9),
    ]


@pytest.fixture(scope="module")
def serial_dicts():
    """Ground truth: the direct BenchmarkRunner path."""
    runner = BenchmarkRunner(keep_last_rig=False)
    return [runner.run(config).to_dict() for config in make_configs()]


class TestEquivalence:
    def test_serial_executor_matches_direct_runner(self, serial_dicts):
        outcomes = Executor().run_units(make_configs())
        assert [o.result.to_dict() for o in outcomes] == serial_dicts

    def test_parallel_jobs2_matches_serial(self, serial_dicts):
        outcomes = Executor(jobs=2).run_units(make_configs())
        assert [o.result.to_dict() for o in outcomes] == serial_dicts

    def test_parallel_jobs1_degenerates_in_process(self, serial_dicts, monkeypatch):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 must not start a worker pool")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        outcomes = Executor(jobs=1).run_units(make_configs())
        assert [o.result.to_dict() for o in outcomes] == serial_dicts

    def test_order_is_preserved(self, serial_dicts):
        labels = [o.result.label for o in Executor(jobs=2).run_units(make_configs())]
        assert labels == [d["label"] for d in serial_dicts]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            Executor(jobs=0)


class TestDeduplication:
    def test_duplicates_cost_one_cache_lookup(self, tmp_path):
        cache = ResultCache(tmp_path)
        lines = []
        executor = Executor(cache=cache, progress=lines.append)
        executor.run_units(make_configs()[:1] * 3)
        assert (executor.ran, executor.from_cache) == (1, 0)
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        assert len(lines) == 1 and lines[0].startswith("[1/1]")


class TestCaching:
    def test_cold_then_warm(self, tmp_path, serial_dicts):
        cold = Executor(jobs=2, cache=ResultCache(tmp_path))
        cold_dicts = [o.result.to_dict() for o in cold.run_units(make_configs())]
        assert (cold.ran, cold.from_cache) == (3, 0)
        assert cold_dicts == serial_dicts

        warm = Executor(jobs=2, cache=ResultCache(tmp_path))
        warm_outcomes = warm.run_units(make_configs())
        assert (warm.ran, warm.from_cache) == (0, 3)
        assert all(o.cached for o in warm_outcomes)
        assert [o.result.to_dict() for o in warm_outcomes] == serial_dicts

    def test_changed_seed_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        Executor(cache=cache).run_units(make_configs()[:1])
        reseeded = make_configs()[0]
        reseeded.seed = 99
        second = Executor(cache=ResultCache(tmp_path))
        second.run_units([reseeded])
        assert (second.ran, second.from_cache) == (1, 0)

    def test_fingerprints_recorded_on_outcomes(self, tmp_path):
        outcomes = Executor(cache=ResultCache(tmp_path)).run_units(
            make_configs()[:1]
        )
        assert outcomes[0].fingerprint
        assert not outcomes[0].cached

    def test_progress_marks_cache_hits(self, tmp_path):
        cache_dir = tmp_path
        Executor(cache=ResultCache(cache_dir)).run_units(make_configs()[:2])
        lines = []
        warm = Executor(cache=ResultCache(cache_dir), progress=lines.append)
        warm.run_units(make_configs()[:2])
        assert lines[0].startswith("[1/2]") and lines[0].endswith("(cached)")
        assert lines[1].startswith("[2/2]")

    def test_summary_lines(self, tmp_path):
        executor = Executor(jobs=2, cache=ResultCache(tmp_path))
        executor.run_units(make_configs())
        assert executor.summary().startswith("executor: 3 ran, 0 cached (jobs=2)")
        assert "cache:" in executor.summary()


def tiny_experiment():
    return Experiment(
        "tiny", "Tiny two-case experiment",
        [
            Case("fabric-dn", dict(system="fabric", iel="DoNothing",
                                   rate_limit=50, seed=7), "DoNothing"),
            Case("quorum-dn", dict(system="quorum", iel="DoNothing",
                                   rate_limit=50, seed=8), "DoNothing"),
        ],
    )


def tiny_sweep():
    return ParameterSweep(
        sweep_id="tiny_bi", title="Tiny BitShares interval sweep",
        parameter="block_interval", values=(1.0, 2.0),
        config_kwargs=dict(system="bitshares", iel="DoNothing",
                           rate_limit=50, seed=9),
        phase="DoNothing",
    )


class TestDriverIntegration:
    def test_experiment_run_executor_matches_serial(self):
        serial = tiny_experiment().run(scale=0.02)
        fanned = tiny_experiment().run(scale=0.02, executor=Executor(jobs=2))
        assert (
            [r.phase_result.to_dict() for r in fanned.case_results]
            == [r.phase_result.to_dict() for r in serial.case_results]
        )

    def test_sweep_run_executor_matches_serial(self):
        serial = tiny_sweep().run(scale=0.02)
        fanned = tiny_sweep().run(scale=0.02, executor=Executor(jobs=2))
        assert (
            [p.phase_result.to_dict() for p in fanned.points]
            == [p.phase_result.to_dict() for p in serial.points]
        )

    def test_resilience_run_executor_matches_serial(self):
        experiment = resilience_leader_crash()
        serial = experiment.run(systems=["fabric"], scale=0.1)
        fanned = experiment.run(
            systems=["fabric"], scale=0.1, executor=Executor(jobs=2)
        )
        assert [row.cells() for row in fanned.rows] == [
            row.cells() for row in serial.rows
        ]
        assert fanned.rows[0].report is not None
