"""Structural tests for the experiment definitions."""

import pytest

from repro.coconut.config import BenchmarkConfig
from repro.experiments import EXPERIMENT_IDS, build_experiment
from repro.experiments.base import Case, Experiment, PaperValue
from repro.experiments.figures import (
    BENCHMARK_ROWS,
    FIG4_PAPER_CELLS,
    best_config_kwargs,
    best_config_variants,
)


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        assert set(EXPERIMENT_IDS) == {
            "fig3", "fig4", "fig5",
            "table7_8", "table9_10", "table11_12", "table13_14",
            "table15_16", "table17_18", "table19_20",
            "sweep_fabric_mm", "sweep_diem_bs", "sweep_bitshares_bi", "sweep_quorum_bp",
            "sweep_sawtooth_pd", "sweep_bitshares_ops", "sweep_sawtooth_batch",
            "resilience_leader_crash", "resilience_partition",
            "capacity_donothing", "capacity_keyvalue", "capacity_keyvalue_grid",
            "capacity_bankingapp",
            "skew_sweep_keyvalue", "burst_capacity", "mix_readwrite_keyvalue",
            "ablation_endtoend", "ext_kafka_ordering", "ext_corda_subset_signing",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            build_experiment("table42")

    @pytest.mark.parametrize("experiment_id", [e for e in EXPERIMENT_IDS if "table" in e])
    def test_table_cases_build_valid_configs(self, experiment_id):
        experiment = build_experiment(experiment_id)
        for case in experiment.cases:
            config = case.build_config()
            assert isinstance(config, BenchmarkConfig)
            assert case.phase in config.phase_sequence


class TestEnvOverrides:
    CASE = Case("c", dict(system="fabric", iel="DoNothing", rate_limit=50), "DoNothing")

    def test_malformed_scale_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        with pytest.raises(ValueError, match=r"REPRO_SCALE.*'tiny'"):
            self.CASE.build_config()

    def test_malformed_reps_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "3.5")
        with pytest.raises(ValueError, match=r"REPRO_REPS.*'3.5'"):
            self.CASE.build_config()

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_REPS", "3.5")
        config = self.CASE.build_config(scale=0.05, repetitions=2)
        assert config.scale == 0.05
        assert config.repetitions == 2


class TestTableValues:
    def test_table7_8_matches_paper(self):
        experiment = build_experiment("table7_8")
        low = experiment.cases[0]
        assert low.paper.mtps == 4.08
        assert low.paper.mfls == 151.93
        assert low.paper.expected == 6000.0
        # Table RL is the aggregate across four clients.
        assert low.build_config().aggregate_rate == 20

    def test_table15_16_encodes_the_stall(self):
        experiment = build_experiment("table15_16")
        stall = next(c for c in experiment.cases if "BP=2" in c.case_id)
        assert stall.paper.mtps == 0.0
        assert stall.paper.received == 0.0

    def test_table19_20_rates(self):
        experiment = build_experiment("table19_20")
        rates = {case.build_config().aggregate_rate for case in experiment.cases}
        assert rates == {200, 1600}


class TestFigureDefinitions:
    def test_fig4_grid_is_complete(self):
        # 6 benchmarks x 7 systems, all printed in the paper.
        assert len(FIG4_PAPER_CELLS) == 42
        phases = {phase for phase, __ in FIG4_PAPER_CELLS}
        assert phases == {p for __, p in BENCHMARK_ROWS}

    def test_best_configs_cover_all_systems(self):
        from repro.chains.registry import SYSTEM_NAMES

        for system in SYSTEM_NAMES:
            kwargs = best_config_kwargs(system)
            assert "rate_limit" in kwargs

    def test_bitshares_banking_has_two_variants(self):
        variants = best_config_variants("bitshares", "BankingApp")
        assert len(variants) == 2
        assert {v.get("ops_per_transaction") for v in variants} == {100, 1}

    def test_other_cells_have_one_variant(self):
        assert len(best_config_variants("fabric", "BankingApp")) == 1
        assert len(best_config_variants("bitshares", "KeyValue")) == 1


class TestWorkloadExperiments:
    @pytest.mark.parametrize(
        "experiment_id",
        ["skew_sweep_keyvalue", "burst_capacity", "mix_readwrite_keyvalue"],
    )
    def test_cases_build_valid_configs(self, experiment_id):
        experiment = build_experiment(experiment_id)
        ids = [case.case_id for case in experiment.cases]
        assert len(ids) == len(set(ids))
        for case in experiment.cases:
            config = case.build_config()
            assert isinstance(config, BenchmarkConfig)
            assert case.phase in config.phase_sequence
            assert config.workload is not None

    def test_skew_sweep_covers_all_access_kinds(self):
        experiment = build_experiment("skew_sweep_keyvalue")
        kinds = {c.build_config().workload.access.kind for c in experiment.cases}
        assert kinds == {"disjoint", "uniform", "zipfian", "hotspot"}

    def test_burst_covers_all_systems_both_shapes(self):
        from repro.chains.registry import SYSTEM_NAMES

        experiment = build_experiment("burst_capacity")
        assert len(experiment.cases) == 2 * len(SYSTEM_NAMES)


class TestExperimentMachinery:
    def test_duplicate_case_ids_rejected(self):
        case = Case("a", dict(system="fabric", iel="DoNothing", rate_limit=10), "DoNothing")
        other = Case("a", dict(system="fabric", iel="DoNothing", rate_limit=20), "DoNothing")
        with pytest.raises(ValueError):
            Experiment("x", "t", [case, other])

    def test_empty_experiment_rejected(self):
        with pytest.raises(ValueError):
            Experiment("x", "t", [])

    def test_scale_overrides(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_REPS", raising=False)
        case = Case("a", dict(system="fabric", iel="DoNothing", rate_limit=10), "DoNothing")
        # The paper's windows and one repetition unless overridden.
        assert case.build_config().scale == 1.0
        assert case.build_config().repetitions == 1
        assert case.build_config(scale=0.07).scale == 0.07
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert case.build_config().scale == 0.5
        # An explicit scale wins over the environment.
        assert case.build_config(scale=0.07).scale == 0.07
        monkeypatch.setenv("REPRO_REPS", "5")
        assert case.build_config().repetitions == 5
        assert case.build_config(repetitions=1).repetitions == 1

    def test_paper_value_describe(self):
        assert PaperValue().describe() == "(not printed)"
        text = PaperValue(mtps=10.0, mfls=2.0, received=5, expected=10).describe()
        assert "MTPS=10.00" in text and "NoT=5/10" in text


def one_case_table13_14() -> Experiment:
    """Table 13-14's RL=800 case alone."""
    table = build_experiment("table13_14")
    case = next(case for case in table.cases if case.case_id == "RL=800 MM=100")
    return Experiment(table.experiment_id, table.title, [case])


class TestTinyRun:
    def test_table_experiment_runs_end_to_end(self):
        experiment = one_case_table13_14()
        run = experiment.run(scale=0.02)
        assert len(run.case_results) == 1
        result = run.case("RL=800 MM=100")
        assert result.measured_mtps > 0
        table = experiment.table(run)
        assert "| Case | Paper | Measured |" in table
        assert "Window scales — RL=800 MM=100: x0.02." in table

    def test_unknown_case_lookup(self):
        run = one_case_table13_14().run(scale=0.02)
        with pytest.raises(KeyError):
            run.case("RL=9999")
