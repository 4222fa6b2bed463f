"""The capacity-search engine: drives benchmark probes to the knee.

One :class:`CapacitySearch` owns a benchmark template (system, IEL,
judged phase, windows, seed), a :class:`~repro.search.space.SearchSpace`
and a strategy name. Running it repeatedly probes operating points —
each probe is an ordinary benchmark unit through the ordinary
measurement path — until the strategy converges on the maximum
sustainable throughput.

Integration points:

* each round's probe batch is independent and runs through one
  :class:`~repro.parallel.executor.Executor`, in-process or over a
  worker pool, landing in its content-addressed result cache when it
  has one, so a grid-oracle run warms a later bisection run and
  repeated searches are free;
* every probe emits a ``search``-category span through
  :mod:`repro.trace` when a tracer is supplied;
* an executor with a ``check_level`` composes the
  :mod:`repro.invariants` oracle layer with the search: each probe's
  merged report is collected in :attr:`CapacitySearch.last_invariants`.

Determinism: strategies are pure state machines and probe configs carry
a fixed seed, so one (space, seed) pair yields one probe sequence and
one report, byte-identical across runs and jobs counts.
"""

from __future__ import annotations

import time
import typing

from repro.coconut.config import BenchmarkConfig, unit_for_iel
from repro.coconut.results import PhaseResult, UnitResult
from repro.search.judge import SustainabilityJudge, Verdict
from repro.search.report import CapacityReport, ProbeRecord
from repro.search.space import SearchSpace
from repro.search.strategy import build_strategy

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.invariants.report import InvariantReport
    from repro.parallel.executor import Executor
    from repro.trace.tracer import Tracer

#: The phase whose numbers the paper reports per IEL — the phase the
#: judge watches unless told otherwise.
REPORTED_PHASES: typing.Dict[str, str] = {
    "DoNothing": "DoNothing",
    "KeyValue": "Set",
    "BankingApp": "SendPayment",
}


class CapacitySearch:
    """A reproducible maximum-sustainable-throughput search."""

    def __init__(
        self,
        system: str,
        iel: str,
        space: SearchSpace,
        phase: typing.Optional[str] = None,
        strategy: str = "bisect",
        judge: typing.Optional[SustainabilityJudge] = None,
        config_kwargs: typing.Optional[typing.Dict[str, object]] = None,
        scale: float = 0.05,
        repetitions: int = 1,
        seed: int = 0,
    ) -> None:
        self.system = system
        self.iel = iel
        self.space = space
        self.phase = phase or REPORTED_PHASES[iel]
        full_unit = unit_for_iel(iel)
        if self.phase not in full_unit:
            raise ValueError(f"phase {self.phase!r} not part of the {iel} unit {full_unit}")
        #: Probes run the unit only up to the judged phase: later phases
        #: cannot influence it, and dropping them keeps probes cheap
        #: while preserving in-unit history effects (a SendPayment probe
        #: still runs CreateAccount first).
        self._phases = full_unit[: full_unit.index(self.phase) + 1]
        self.strategy_name = strategy
        # Validate the name now, not at the first probe round.
        build_strategy(strategy, space.rate)
        self.judge = judge or SustainabilityJudge()
        self.config_kwargs = dict(config_kwargs or {})
        self.scale = scale
        self.repetitions = repetitions
        self.seed = seed
        #: Per-probe merged invariant reports of the last checked run.
        self.last_invariants: typing.List["InvariantReport"] = []

    def build_config(
        self, rate: int, combo: typing.Optional[typing.Dict[str, object]] = None
    ) -> BenchmarkConfig:
        """The benchmark unit one probe runs."""
        kwargs = dict(self.config_kwargs)
        params = dict(typing.cast(dict, kwargs.pop("params", {})))
        if combo:
            params.update(combo)
        return BenchmarkConfig(
            system=self.system,
            iel=self.iel,
            rate_limit=int(rate),
            phases=self._phases if self._phases != unit_for_iel(self.iel) else None,
            params=params,
            scale=self.scale,
            repetitions=self.repetitions,
            seed=self.seed,
            **kwargs,
        )

    def run(
        self,
        executor: typing.Optional["Executor"] = None,
        tracer: typing.Optional["Tracer"] = None,
        progress: typing.Optional[typing.Callable[[str], None]] = None,
    ) -> CapacityReport:
        """Search the space; returns the capacity report.

        Each search round's probes run as one batch through ``executor``
        (by default an in-process
        :class:`~repro.parallel.executor.Executor`); an executor with a
        ``check_level`` runs every probe under the invariant oracles.
        """
        from repro.invariants.report import InvariantReport

        if executor is None:
            from repro.parallel.executor import Executor

            executor = Executor()
        progress = progress or (lambda message: None)
        self.last_invariants = []
        combos = self.space.combos()
        strategies = [build_strategy(self.strategy_name, self.space.rate) for _ in combos]
        #: (combo index, rate) -> the probe's judged phase result.
        results: typing.Dict[typing.Tuple[int, int], PhaseResult] = {}
        verdicts: typing.Dict[typing.Tuple[int, int], Verdict] = {}
        probes: typing.List[ProbeRecord] = []
        wall_start = time.perf_counter()
        while True:
            requests: typing.List[typing.Tuple[int, int]] = []
            for combo_index, strategy in enumerate(strategies):
                for rate in strategy.next_rates():
                    requests.append((combo_index, int(rate)))
            if not requests:
                break
            configs = [
                self.build_config(rate, combos[combo_index])
                for combo_index, rate in requests
            ]
            round_start = time.perf_counter() - wall_start
            outcomes = executor.run_units(configs)
            for (combo_index, rate), outcome in zip(requests, outcomes):
                reports = [
                    InvariantReport.from_dict(metrics.invariants)
                    for metrics in outcome.result.phase(self.phase).repetitions
                    if metrics.invariants is not None
                ]
                if reports:
                    self.last_invariants.append(InvariantReport.merge(reports))
                self._record_probe(
                    combo_index, rate, combos[combo_index], outcome.config,
                    outcome.result, outcome.cached,
                    strategies[combo_index], results, verdicts, probes,
                    tracer, (round_start, time.perf_counter() - wall_start), progress,
                )
        return self._build_report(combos, strategies, results, probes)

    def _record_probe(
        self,
        combo_index: int,
        rate: int,
        combo: typing.Dict[str, object],
        config: BenchmarkConfig,
        unit: UnitResult,
        cached: bool,
        strategy,
        results: typing.Dict[typing.Tuple[int, int], PhaseResult],
        verdicts: typing.Dict[typing.Tuple[int, int], Verdict],
        probes: typing.List[ProbeRecord],
        tracer: typing.Optional["Tracer"],
        wall_window: typing.Tuple[float, float],
        progress: typing.Callable[[str], None],
    ) -> None:
        """Judge one executed probe and feed its strategy."""
        phase_result = unit.phase(self.phase)
        verdict = self.judge.judge(phase_result, config)
        strategy.observe(rate, verdict.sustainable)
        results[(combo_index, rate)] = phase_result
        verdicts[(combo_index, rate)] = verdict
        probes.append(
            ProbeRecord(
                sequence=len(probes),
                rate_limit=rate,
                aggregate_rate=rate * config.client_count,
                params=dict(combo),
                tps=verdict.tps,
                mean_fls=verdict.mean_fls,
                loss_fraction=verdict.loss_fraction,
                sustainable=verdict.sustainable,
                reasons=verdict.reasons,
                cached=cached,
            )
        )
        if tracer is not None and tracer.enabled:
            # Search spans live on the wall clock (seconds since the
            # search started), not simulated time: each probe is its own
            # simulation with its own clock.
            tracer.record_span(
                "probe", category="search",
                start=wall_window[0], end=wall_window[1],
                system=self.system, iel=self.iel, phase=self.phase,
                strategy=self.strategy_name, rate_limit=rate,
                aggregate_rate=rate * config.client_count,
                sustainable=verdict.sustainable, tps=round(verdict.tps, 2),
                cached=cached, sequence=len(probes) - 1,
            )
        progress(
            f"probe {len(probes)}: RL={rate * config.client_count} -> "
            f"tps={verdict.tps:.1f} {verdict.describe()}"
        )

    def _build_report(
        self,
        combos: typing.Tuple[typing.Dict[str, object], ...],
        strategies: typing.Sequence[typing.Any],
        results: typing.Dict[typing.Tuple[int, int], PhaseResult],
        probes: typing.List[ProbeRecord],
    ) -> CapacityReport:
        """Pick the best knee across combos and assemble the report."""
        best: typing.Optional[typing.Tuple[float, int, int]] = None
        for combo_index, strategy in enumerate(strategies):
            knee = strategy.knee()
            if knee is None:
                continue
            phase_result = results[(combo_index, int(knee))]
            tps = phase_result.mtps.mean
            if best is None or tps > best[0]:
                best = (tps, combo_index, int(knee))
        client_count = self.build_config(int(self.space.rate.low)).client_count
        if best is None:
            knee_rate = None
            knee_aggregate = None
            knee_params: typing.Dict[str, object] = {}
            mtps = mfls = None
        else:
            __, combo_index, knee_rate = best
            knee_aggregate = knee_rate * client_count
            knee_params = dict(combos[combo_index])
            knee_result = results[(combo_index, knee_rate)]
            mtps = knee_result.mtps
            mfls = knee_result.mfls
        return CapacityReport(
            system=self.system,
            iel=self.iel,
            phase=self.phase,
            strategy=self.strategy_name,
            space=self.space.describe(),
            scale=self.scale,
            repetitions=self.repetitions,
            seed=self.seed,
            criteria=self.judge.describe(),
            probes=probes,
            knee_rate=knee_rate,
            knee_aggregate_rate=knee_aggregate,
            knee_params=knee_params,
            mtps=mtps,
            mfls=mfls,
        )
