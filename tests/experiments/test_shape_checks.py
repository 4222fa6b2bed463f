"""The paper-shape checks and the EXPERIMENTS.md generator that enforces them.

No real experiment runs here: runs are built by each experiment's own
``run`` over an executor that answers every unit with made-up numbers,
and the generator is driven over a stubbed section.
"""

import datetime
import importlib.util
import pathlib
import types

import pytest

from repro.analysis.compare import ShapeCheck
from repro.coconut.metrics import PhaseMetrics
from repro.coconut.results import PhaseResult
from repro.experiments.registry import build_experiment, shape_checks

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "generate_experiments_md.py"


def load_generator():
    spec = importlib.util.spec_from_file_location("generate_experiments_md", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = load_generator()

#: Every experiment the generator writes a section for, in file order.
GENERATED_IDS = [i for __, ids, __ in GENERATOR.SECTIONS for i in ids]

#: The paper's tables and figures among them.
PAPER_IDS = [i for i in GENERATED_IDS if i.startswith(("table", "fig"))]


class FakeExecutor:
    """Answers every unit with one made-up phase result; runs nothing."""

    PHASE = PhaseResult(
        phase="any",
        repetitions=[PhaseMetrics(
            phase="any", repetition=0, expected=100, received=40, failed=0,
            t_first_send=0.0, t_last_receive=10.0, duration=10.0, tps=4.0, mean_fls=2.0,
        )],
    )

    def run_units(self, configs):
        unit = types.SimpleNamespace(phase=lambda name: self.PHASE)
        return [types.SimpleNamespace(result=unit) for __ in configs]


@pytest.fixture(scope="module")
def runs():
    executor = FakeExecutor()
    return {i: build_experiment(i).run(executor=executor) for i in PAPER_IDS}


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


@pytest.mark.parametrize("experiment_id", PAPER_IDS)
def test_check_names_are_unique_within_an_experiment(runs, experiment_id):
    names = [check.name for check in shape_checks(experiment_id, runs)]
    assert len(names) == len(set(names))


def test_experiments_beyond_the_paper_have_no_checks():
    for experiment_id in set(GENERATED_IDS) - set(PAPER_IDS):
        assert shape_checks(experiment_id, {experiment_id: object()}) == []


class TestGenerator:
    @pytest.fixture
    def stubbed(self, monkeypatch):
        """The generator over one stubbed experiment with a failing check."""
        run = object()

        def write(written, writer):
            assert written is run
            writer.write("\n### Stub experiment\n")

        def checks(experiment_id, runs):
            assert runs[experiment_id] is run
            return [ShapeCheck("holds", True, "fine"), ShapeCheck("breaks", False, "inverted")]

        experiment = types.SimpleNamespace(run=lambda executor: run)
        monkeypatch.setattr(GENERATOR, "SECTIONS", (("", ("stub",), write),))
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
