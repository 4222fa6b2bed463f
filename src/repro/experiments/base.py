"""Experiment machinery: the batch runner, cases and paper values.

Every experiment has an id, a title, a ``run(executor=None, scale=None,
systems=None)`` and a ``table(run)``: the run's EXPERIMENTS.md section,
which ``coconut experiment <id>`` prints too. Most run their units as
one executor batch through :meth:`BatchExperiment.run`, supplying only
their labelled configs, how the labelled results fold into a run, and
the table. An experiment built from :class:`Case` s produces
measured-vs-paper rows.

Scaling: a case runs at the paper's windows (300 s send, 330 s listen,
Section 4.3) unless told otherwise. ``REPRO_SCALE=<x>`` shortens them
for a quick local run, and an explicit ``scale`` (as ``coconut
experiment --scale`` passes) wins over it. ``REPRO_REPS=<n>`` forces a
repetition count (the paper uses 3; cases default to 1 for speed), and
an explicit ``repetitions`` wins over it.
"""

from __future__ import annotations

import dataclasses
import os
import typing

from repro.chains.registry import SYSTEM_NAMES
from repro.coconut.config import BenchmarkConfig
from repro.coconut.report import markdown_section
from repro.coconut.results import PhaseResult, UnitResult

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.executor import Executor

_Item = typing.TypeVar("_Item")

#: One unit of a batch: the experiment's label, its config and its result.
LabelledResult = typing.Tuple[typing.Any, BenchmarkConfig, UnitResult]


class SelectionError(ValueError):
    """A ``systems`` selection that names no system or keeps no unit."""


def select_systems(
    items: typing.Sequence[_Item],
    systems: typing.Optional[typing.Sequence[str]],
    system_of: typing.Callable[[_Item], str],
) -> typing.List[_Item]:
    """The ``items`` whose system ``systems`` lists; all when it is None.

    Raises :class:`SelectionError` for a name that is no system and for
    a selection that keeps nothing, before any unit runs.
    """
    if systems is None:
        return list(items)
    for system in systems:
        if system not in SYSTEM_NAMES:
            raise SelectionError(
                f"unknown system {system!r}; known: {', '.join(SYSTEM_NAMES)}"
            )
    kept = [item for item in items if system_of(item) in systems]
    if not kept:
        raise SelectionError(f"no unit of this experiment runs on {', '.join(systems)}")
    return kept


class BatchExperiment:
    """An experiment whose units run as one executor batch."""

    experiment_id: str
    title: str

    def configs(
        self, scale: typing.Optional[float]
    ) -> typing.List[typing.Tuple[typing.Any, BenchmarkConfig]]:
        """The labelled configs of every unit, at ``scale`` when given."""
        raise NotImplementedError

    def collect(self, results: typing.List[LabelledResult]) -> typing.Any:
        """The run the labelled results fold into."""
        raise NotImplementedError

    def table(self, run: typing.Any) -> str:
        """The run's section of EXPERIMENTS.md."""
        raise NotImplementedError

    def run(
        self,
        executor: typing.Optional["Executor"] = None,
        scale: typing.Optional[float] = None,
        systems: typing.Optional[typing.Sequence[str]] = None,
    ) -> typing.Any:
        """Run the units of the listed ``systems`` (all by default).

        They run as one batch through ``executor`` (by default an
        in-process :class:`~repro.parallel.executor.Executor`); every
        jobs count gives byte-identical results, because each unit owns
        its seeded RNG streams, and units that share a config run once.
        """
        if executor is None:
            from repro.parallel.executor import Executor

            executor = Executor()
        labelled = select_systems(self.configs(scale), systems, lambda item: item[1].system)
        outcomes = executor.run_units([config for __, config in labelled])
        return self.collect([
            (label, config, outcome.result)
            for (label, config), outcome in zip(labelled, outcomes)
        ])


@dataclasses.dataclass(frozen=True)
class PaperValue:
    """Numbers the paper reports for one case (None = not printed)."""

    mtps: typing.Optional[float] = None
    mfls: typing.Optional[float] = None
    duration: typing.Optional[float] = None
    received: typing.Optional[float] = None
    expected: typing.Optional[float] = None

    def describe(self) -> str:
        """Compact rendering for comparison tables."""
        parts = []
        if self.mtps is not None:
            parts.append(f"MTPS={self.mtps:.2f}")
        if self.mfls is not None:
            parts.append(f"MFLS={self.mfls:.2f}s")
        if self.received is not None and self.expected is not None:
            parts.append(f"NoT={self.received:.0f}/{self.expected:.0f}")
        return " ".join(parts) if parts else "(not printed)"


@dataclasses.dataclass
class Case:
    """One benchmark configuration inside an experiment."""

    case_id: str
    config_kwargs: typing.Dict[str, object]
    phase: str
    paper: PaperValue = dataclasses.field(default_factory=PaperValue)

    def build_config(
        self,
        scale: typing.Optional[float] = None,
        repetitions: typing.Optional[int] = None,
    ) -> BenchmarkConfig:
        """Materialise the benchmark configuration, applying overrides."""
        env_scale = os.environ.get("REPRO_SCALE")
        if scale is not None:
            effective_scale = scale
        elif env_scale:
            try:
                effective_scale = float(env_scale)
            except ValueError:
                raise ValueError(
                    f"REPRO_SCALE must be a number in (0, 1], got {env_scale!r}"
                ) from None
        else:
            effective_scale = 1.0
        env_reps = os.environ.get("REPRO_REPS")
        if repetitions is not None:
            effective_reps = repetitions
        elif env_reps:
            try:
                effective_reps = int(env_reps)
            except ValueError:
                raise ValueError(
                    f"REPRO_REPS must be a positive integer, got {env_reps!r}"
                ) from None
        else:
            effective_reps = 1
        return BenchmarkConfig(
            scale=effective_scale, repetitions=effective_reps, **self.config_kwargs
        )


@dataclasses.dataclass
class CaseResult:
    """Measured numbers for one case, next to the paper's."""

    case: Case
    phase_result: PhaseResult
    #: The window scale the case ran at.
    scale: float

    @property
    def measured_mtps(self) -> float:
        return self.phase_result.mtps.mean


@dataclasses.dataclass
class ExperimentRun:
    """The outcome of running an experiment."""

    experiment_id: str
    case_results: typing.List[CaseResult]

    def case(self, case_id: str) -> CaseResult:
        """Look one case's result up."""
        for result in self.case_results:
            if result.case.case_id == case_id:
                return result
        raise KeyError(f"no case {case_id!r} in {self.experiment_id}")

    def window_scales(self) -> str:
        """The table note naming the window scale each case ran at."""
        scales = ", ".join(
            f"{result.case.case_id}: x{result.scale}" for result in self.case_results
        )
        return f"Window scales — {scales}."


class Experiment(BatchExperiment):
    """A reproducible paper artifact: a named list of cases."""

    def __init__(self, experiment_id: str, title: str, cases: typing.Sequence[Case]) -> None:
        if not cases:
            raise ValueError(f"experiment {experiment_id!r} has no cases")
        ids = [case.case_id for case in cases]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate case ids in {experiment_id!r}")
        self.experiment_id = experiment_id
        self.title = title
        self.cases = list(cases)

    def configs(
        self, scale: typing.Optional[float]
    ) -> typing.List[typing.Tuple[Case, BenchmarkConfig]]:
        return [(case, case.build_config(scale=scale)) for case in self.cases]

    def collect(self, results: typing.List[LabelledResult]) -> ExperimentRun:
        return ExperimentRun(self.experiment_id, [
            CaseResult(case, unit.phase(case.phase), config.scale)
            for case, config, unit in results
        ])

    def table(self, run: ExperimentRun) -> str:
        """Paper vs measured per case, and the scale each case ran at."""
        rows = []
        for result in run.case_results:
            phase = result.phase_result
            measured = (
                f"MTPS={phase.mtps.mean:.2f} MFLS={phase.mfls.mean:.2f}s "
                f"NoT={phase.received.mean:.0f}/{phase.expected.mean:.0f} "
                f"D={phase.duration.mean:.1f}s"
            )
            rows.append([result.case.case_id, result.case.paper.describe(), measured])
        return markdown_section(
            self.title, ["Case", "Paper", "Measured"], rows, note=run.window_scales()
        )
