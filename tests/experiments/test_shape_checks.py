"""The shape checks and the EXPERIMENTS.md generator that enforces them.

No real experiment runs here: runs are built by each experiment's own
``run`` over an executor that answers every unit with made-up numbers
(the in-process ablation's run is made up whole), and the generator is
driven over stubbed sections.
"""

import datetime
import importlib.util
import os
import pathlib
import types

import pytest

from repro import cli
from repro.analysis.compare import ShapeCheck
from repro.coconut.metrics import PhaseMetrics
from repro.coconut.results import PhaseResult
from repro.experiments.base import Experiment
from repro.experiments.extensions import AblationRun, EndToEndAblation, VantagePoint
from repro.experiments.registry import EXPERIMENT_IDS, build_experiment, shape_checks

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "generate_experiments_md.py"


def load_generator():
    spec = importlib.util.spec_from_file_location("generate_experiments_md", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = load_generator()

#: Every experiment the generator writes a section for, in file order.
GENERATED_IDS = [i for __, ids in GENERATOR.SECTIONS for i in ids]

#: The paper's tables and figures among them.
PAPER_IDS = [i for i in GENERATED_IDS if i.startswith(("table", "fig"))]

#: The generated experiments that carry no shape check.
UNCHECKED_IDS = [
    "sweep_diem_bs", "capacity_donothing", "capacity_keyvalue", "capacity_bankingapp",
    "skew_sweep_keyvalue", "burst_capacity", "mix_readwrite_keyvalue",
]

#: Every other generated experiment.
CHECKED_IDS = [i for i in GENERATED_IDS if i not in UNCHECKED_IDS]


class FakeExecutor:
    """Answers every unit with made-up numbers; runs nothing. Units at a
    per-client rate up to ``knee`` confirm all 100 payloads, others 40."""

    def __init__(self, knee=0):
        self.knee = knee

    def run_units(self, configs):
        outcomes = []
        for config in configs:
            received = 100 if config.rate_limit <= self.knee else 40
            phase = PhaseResult(
                phase="any",
                repetitions=[PhaseMetrics(
                    phase="any", repetition=0, expected=100, received=received, failed=0,
                    t_first_send=0.0, t_last_receive=1.0, duration=1.0,
                    tps=float(received), mean_fls=2.0,
                )],
            )
            unit = types.SimpleNamespace(phase=lambda name, phase=phase: phase)
            outcomes.append(types.SimpleNamespace(config=config, cached=False, result=unit))
        return outcomes

    def summary(self):
        return "executor: made up"


#: The ablation's run, made up whole: it runs in-process, not through
#: an executor.
ABLATION_RUN = AblationRun("ablation_endtoend", [
    VantagePoint(peers=4, node_tps=400.0, client_tps=390.0, received=100),
    VantagePoint(peers=16, node_tps=400.0, client_tps=0.0, received=0),
])


@pytest.fixture(scope="module")
def runs():
    executor = FakeExecutor()
    built = {
        i: build_experiment(i).run(executor=executor)
        for i in GENERATED_IDS
        if i != "ablation_endtoend"
    }
    built["ablation_endtoend"] = ABLATION_RUN
    return built


def test_generator_covers_every_table_and_figure():
    assert sorted(PAPER_IDS) == sorted([
        "fig3", "fig4", "fig5", "table7_8", "table9_10", "table11_12", "table13_14",
        "table15_16", "table17_18", "table19_20",
    ])


@pytest.mark.parametrize("experiment_id", PAPER_IDS)
def test_every_table_and_figure_has_checks(runs, experiment_id):
    checks = shape_checks(experiment_id, runs)
    assert checks
    assert all(isinstance(check, ShapeCheck) for check in checks)


@pytest.mark.parametrize("experiment_id", [i for i in CHECKED_IDS if i not in PAPER_IDS])
def test_sweeps_oracle_ablation_and_extensions_have_checks(runs, experiment_id):
    checks = shape_checks(experiment_id, runs)
    assert checks
    assert all(isinstance(check, ShapeCheck) for check in checks)


@pytest.mark.parametrize("experiment_id", CHECKED_IDS)
def test_check_names_are_unique_within_an_experiment(runs, experiment_id):
    names = [check.name for check in shape_checks(experiment_id, runs)]
    assert len(names) == len(set(names))


def test_unchecked_experiments_have_no_checks():
    for experiment_id in UNCHECKED_IDS:
        assert shape_checks(experiment_id, {experiment_id: object()}) == []


def test_ablation_checks_pass_on_the_papers_shape(runs):
    assert all(check.passed for check in shape_checks("ablation_endtoend", runs))


class TestCapacityOracle:
    """The grid oracle's checks against the ``capacity_keyvalue`` bisection."""

    def checks(self, bisect_knee, grid_knee):
        return shape_checks("capacity_keyvalue_grid", {
            "capacity_keyvalue": build_experiment("capacity_keyvalue").run(
                systems=("fabric", "quorum"), executor=FakeExecutor(bisect_knee)
            ),
            "capacity_keyvalue_grid": build_experiment("capacity_keyvalue_grid").run(
                executor=FakeExecutor(grid_knee)
            ),
        })

    def test_bisection_on_the_oracles_knee_passes(self):
        checks = self.checks(bisect_knee=100, grid_knee=100)
        assert [c.name for c in checks if not c.passed] == []
        offered = next(c for c in checks if c.name.startswith("fabric: bisection offers"))
        assert offered.detail.endswith(
            "< grid 25+50+75+100+125+150+175+200+225+250+275+300+325+350+375+400 = 3400"
            " payloads/s per client"
        )

    def test_a_knee_two_rate_steps_off_fails(self):
        # Fabric's window steps by 25; Quorum's tops out at 80, so both
        # of its searches end at the window's top.
        checks = self.checks(bisect_knee=100, grid_knee=150)
        failed = [c.name for c in checks if not c.passed]
        assert failed == ["fabric: bisection within one rate step of the oracle"]

    def test_no_knee_fails_without_comparing(self):
        checks = self.checks(bisect_knee=0, grid_knee=100)
        assert not next(c for c in checks if c.name == "fabric: both strategies find a knee").passed
        assert not next(
            c for c in checks if c.name == "fabric: bisection within one rate step of the oracle"
        ).passed


class TestGenerator:
    @pytest.fixture
    def stubbed(self, monkeypatch):
        """The generator over one stubbed experiment with a failing check."""
        run = object()

        def table(written):
            assert written is run
            return "\n### Stub experiment\n"

        def checks(experiment_id, runs):
            assert runs[experiment_id] is run
            return [ShapeCheck("holds", True, "fine"), ShapeCheck("breaks", False, "inverted")]

        experiment = types.SimpleNamespace(run=lambda executor: run, table=table)
        monkeypatch.setattr(GENERATOR, "SECTIONS", (("", ("stub",)),))
        monkeypatch.setattr(GENERATOR, "build_experiment", lambda experiment_id: experiment)
        monkeypatch.setattr(GENERATOR, "shape_checks", checks)
        return GENERATOR

    def test_failed_check_is_written_and_exits_1(self, stubbed, tmp_path, capsys):
        output = tmp_path / "EXPERIMENTS.md"
        assert stubbed.main([str(output)]) == 1
        text = output.read_text()
        assert "### Stub experiment" in text
        assert "[PASS] holds: fine" in text
        assert "[FAIL] breaks: inverted" in text
        assert "1/2 shape checks passed" in text
        assert "shape check failed: stub: breaks" in capsys.readouterr().out

    def test_date_and_timing_go_to_stdout_not_the_file(self, stubbed, tmp_path, capsys):
        output = tmp_path / "EXPERIMENTS.md"
        stubbed.main([str(output)])
        text = output.read_text()
        out = capsys.readouterr().out
        assert datetime.date.today().isoformat() in out and "ran in" in out
        assert datetime.date.today().isoformat() not in text and "ran in" not in text


class RecordingExecutor(FakeExecutor):
    """A :class:`FakeExecutor` that keeps every config it is handed."""

    def __init__(self):
        super().__init__()
        self.configs = []

    def run_units(self, configs):
        self.configs += configs
        return super().run_units(configs)


class TestScaleNote:
    #: The generated experiments that are lists of ``Case`` s.
    CASE_IDS = {*GENERATOR.TABLE_IDS, *GENERATOR.WORKLOAD_IDS, *GENERATOR.EXTENSION_IDS}

    @pytest.fixture
    def no_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_REPS", raising=False)

    def test_default_header_is_the_committed_one(self, no_override):
        header = GENERATOR.HEADER.format(reps="1")
        committed = (SCRIPT.parents[1] / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert committed.startswith(header)

    def test_cases_build_at_the_papers_windows(self, no_override):
        case_ids = set()
        for experiment_id in GENERATED_IDS:
            experiment = build_experiment(experiment_id)
            if isinstance(experiment, Experiment):
                case_ids.add(experiment_id)
                assert {case.build_config().scale for case in experiment.cases} == {1.0}
        assert case_ids == self.CASE_IDS

    def test_repro_scale_reaches_exactly_the_cases(self, no_override, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0123")
        reached = set()
        for experiment_id in GENERATED_IDS:
            if experiment_id == "ablation_endtoend":
                # Runs in-process, not through an executor.
                assert dict(build_experiment(experiment_id).configs(None))[4].scale != 0.0123
                continue
            executor = RecordingExecutor()
            build_experiment(experiment_id).run(executor=executor)
            scales = {config.scale for config in executor.configs}
            assert scales
            if scales == {0.0123}:
                reached.add(experiment_id)
            else:
                assert 0.0123 not in scales, experiment_id
        assert reached == self.CASE_IDS


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_cli_prints_the_table_the_generator_writes(experiment_id, monkeypatch, tmp_path, capsys):
    """One renderer: ``coconut experiment <id>`` prints the section the
    generator writes for the same run, then the executor's line."""
    monkeypatch.setattr(EndToEndAblation, "run", lambda self, **kwargs: ABLATION_RUN)
    monkeypatch.setattr(cli, "_executor", lambda args: FakeExecutor())
    assert cli.main(["experiment", experiment_id]) == 0
    printed = capsys.readouterr().out

    monkeypatch.setattr(GENERATOR, "Executor", lambda **kwargs: FakeExecutor())
    monkeypatch.setattr(GENERATOR, "SECTIONS", (("", (experiment_id,)),))
    monkeypatch.setattr(GENERATOR, "shape_checks", lambda experiment_id, runs: [])
    output = tmp_path / "EXPERIMENTS.md"
    assert GENERATOR.main([str(output)]) == 0
    written = output.read_text(encoding="utf-8")
    header = GENERATOR.HEADER.format(reps=os.environ.get("REPRO_REPS", "1"))
    assert written.startswith(header) and written.endswith(GENERATOR.FOOTER)
    section = written[len(header):-len(GENERATOR.FOOTER)]
    assert section.startswith("\n### ") and "\n|---|" in section
    assert printed == section + "executor: made up\n"
