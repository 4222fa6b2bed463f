"""Experiment machinery: cases, paper values, comparison rendering.

An experiment is a list of cases; each case is one benchmark
configuration plus the phase whose numbers the paper reports and,
where the paper prints them, the reported values. Running an experiment
produces measured-vs-paper rows, which EXPERIMENTS.md records.

Scaling: simulated windows default to each case's ``recommended_scale``
(chosen so the case's dynamics — queue growth, stalls, deep-latency
confirmation — fit the shortened windows). ``REPRO_FULL_SCALE=1`` in the
environment restores the paper's full 300 s send windows;
``REPRO_SCALE=<x>`` forces a specific scale; ``REPRO_REPS=<n>`` forces a
repetition count (the paper uses 3; benches default to 1 for speed).
"""

from __future__ import annotations

import dataclasses
import os
import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.results import PhaseResult
from repro.coconut.runner import BenchmarkRunner

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.executor import Executor


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
    recommended_scale: float = 0.1
    recommended_repetitions: int = 1
    #: Set when the case's phenomenon is slower than the scaled listen
    #: window: a zero-received measurement is then annotated as
    #: unobservable rather than presented as a bare zero.
    window_note: typing.Optional[str] = None

    def build_config(
        self,
        scale: typing.Optional[float] = None,
        repetitions: typing.Optional[int] = None,
    ) -> BenchmarkConfig:
        """Materialise the benchmark configuration, applying overrides."""
        env_scale = os.environ.get("REPRO_SCALE")
        if os.environ.get("REPRO_FULL_SCALE") == "1":
            effective_scale = 1.0
        elif scale is not None:
            effective_scale = scale
        elif env_scale:
            try:
                effective_scale = float(env_scale)
            except ValueError:
                raise ValueError(
                    f"REPRO_SCALE must be a number in (0, 1], got {env_scale!r}"
                ) from None
        else:
            effective_scale = self.recommended_scale
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
            effective_reps = self.recommended_repetitions
        return BenchmarkConfig(
            scale=effective_scale, repetitions=effective_reps, **self.config_kwargs
        )


@dataclasses.dataclass
class CaseResult:
    """Measured numbers for one case, next to the paper's."""

    case: Case
    phase_result: PhaseResult

    @property
    def measured_mtps(self) -> float:
        return self.phase_result.mtps.mean

    def comparison_row(self) -> typing.List[str]:
        """One row of the paper-vs-measured table."""
        phase = self.phase_result
        measured = (
            f"MTPS={phase.mtps.mean:.2f} MFLS={phase.mfls.mean:.2f}s "
            f"NoT={phase.received.mean:.0f}/{phase.expected.mean:.0f} "
            f"D={phase.duration.mean:.1f}s"
        )
        if phase.received.mean == 0 and self.case.window_note:
            measured = f"{measured} ({self.case.window_note})"
        return [self.case.case_id, self.case.paper.describe(), measured]


@dataclasses.dataclass
class ExperimentRun:
    """The outcome of running an experiment."""

    experiment_id: str
    title: str
    case_results: typing.List[CaseResult]

    def case(self, case_id: str) -> CaseResult:
        """Look one case's result up."""
        for result in self.case_results:
            if result.case.case_id == case_id:
                return result
        raise KeyError(f"no case {case_id!r} in {self.experiment_id}")

    def render(self) -> str:
        """The paper-vs-measured comparison table."""
        from repro.coconut.report import format_table

        rows = [result.comparison_row() for result in self.case_results]
        table = format_table(["Case", "Paper", "Measured"], rows)
        return f"{self.title}\n{table}"


class Experiment:
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

    def run(
        self,
        runner: typing.Optional[BenchmarkRunner] = None,
        scale: typing.Optional[float] = None,
        repetitions: typing.Optional[int] = None,
        case_filter: typing.Optional[typing.Callable[[Case], bool]] = None,
        executor: typing.Optional["Executor"] = None,
    ) -> ExperimentRun:
        """Execute (a subset of) the experiment's cases.

        With an ``executor`` the cases fan out over its worker pool and
        result cache; otherwise they run serially through ``runner``.
        Both paths produce byte-identical per-case results — each case
        owns its seeded RNG streams.
        """
        selected = [
            case
            for case in self.cases
            if case_filter is None or case_filter(case)
        ]
        configs = [
            case.build_config(scale=scale, repetitions=repetitions)
            for case in selected
        ]
        if executor is not None:
            units = [outcome.result for outcome in executor.run_units(configs)]
        else:
            # Experiments run many units back to back; like sweeps, they
            # must not accumulate one retained rig per case.
            runner = runner or BenchmarkRunner(keep_last_rig=False)
            units = runner.run_many(configs)
        case_results = [
            CaseResult(case=case, phase_result=unit.phase(case.phase))
            for case, unit in zip(selected, units)
        ]
        return ExperimentRun(
            experiment_id=self.experiment_id, title=self.title, case_results=case_results
        )
