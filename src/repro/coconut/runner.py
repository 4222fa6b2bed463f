"""Benchmark orchestration.

Runs one benchmark unit: for each repetition, provision a fresh rig
(Section 4.1), wait out the system's stabilization time (Section 4.4),
then execute the unit's phases back to back — every phase is a full
send/listen/terminate cycle (Section 4.3) — and compute the Section 4.5
metrics from the clients' streaming accumulators.

Automatic cyclic garbage collection is paused while a repetition's
phases run. A run creates no reference cycles (the conformance matrix
checks every cell), so the collector's passes there would only re-scan
the live deployment. A finished deployment is itself one large cyclic
graph, though, so the runner collects whenever it drops a rig:
otherwise the next paused window would start with it still in memory.
"""

from __future__ import annotations

import gc
import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.metrics import PhaseMetrics
from repro.coconut.provisioner import Provisioner, Rig
from repro.coconut.results import PhaseResult, ResultStore, UnitResult
from repro.invariants import InvariantChecker, InvariantReport
from repro.sim.collector import collector_paused
from repro.stream.accumulator import PhaseAccumulator, ResilienceAccumulator

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.stream.spill import RecordSink
    from repro.trace.tracer import Tracer


class BenchmarkRunner:
    """Executes benchmark units and aggregates their results."""

    def __init__(
        self,
        store: typing.Optional[ResultStore] = None,
        provisioner: typing.Optional[Provisioner] = None,
        progress: typing.Optional[typing.Callable[[str], None]] = None,
        tracer: typing.Optional["Tracer"] = None,
        keep_last_rig: bool = True,
        check: bool = False,
        check_level: str = "basic",
        spill: typing.Optional["RecordSink"] = None,
    ) -> None:
        self.store = store
        self.provisioner = provisioner or Provisioner()
        self.progress = progress or (lambda message: None)
        #: Installed on every repetition's simulator when set, so one
        #: tracer collects the whole unit (phases carry repetition attrs).
        self.tracer = tracer
        #: Whether to install an invariant checker on every repetition's
        #: simulator. Each repetition gets a fresh checker (a fresh rig
        #: restarts every chain at height zero, which a shared checker
        #: would misread as an agreement violation); the unit-level
        #: report is their merge.
        self.check = check
        self.check_level = check_level
        #: Whether to pin the most recent repetition's rig for post-run
        #: inspection (block statistics, chain validation). Batch units
        #: (:func:`repro.parallel.executor.execute_unit`) disable this:
        #: retaining a full simulated deployment per unit bloats memory
        #: across large parameter sweeps.
        self.keep_last_rig = keep_last_rig
        self.last_rig: typing.Optional[Rig] = None
        #: The most recent unit's merged invariant report (None when the
        #: unit ran unchecked).
        self.last_invariants: typing.Optional[InvariantReport] = None
        #: Full-fidelity record sink attached to every client (a
        #: :class:`~repro.stream.SpillSink` file or an in-memory
        #: :class:`~repro.stream.RetainingSink`): each payload record is
        #: handed to it once, when it retires or expires.
        self.spill = spill
        #: Most payload records simultaneously tracked by any client of
        #: the most recent unit — the bounded-memory observable.
        self.last_stream_peak = 0
        #: Records written to the spill sink by the most recent unit.
        self.last_stream_spilled = 0

    def run(self, config: BenchmarkConfig) -> UnitResult:
        """Run one benchmark unit, all repetitions, all phases."""
        self.last_invariants = None
        self.last_stream_peak = 0
        self.last_stream_spilled = 0
        phases = config.phase_sequence
        per_phase: typing.Dict[str, typing.List[PhaseMetrics]] = {p: [] for p in phases}
        reports: typing.List[InvariantReport] = []
        for repetition in range(config.repetitions):
            self.progress(f"{config.label()} repetition {repetition + 1}/{config.repetitions}")
            rig = self.provisioner.provision(config, repetition)
            if self.spill is not None:
                self.spill.set_context(label=config.label(), repetition=repetition)
                for client in rig.clients:
                    client.stream.sink = self.spill
            if self.tracer is not None:
                rig.sim.set_tracer(self.tracer)
            if self.check:
                rig.sim.set_checker(
                    InvariantChecker(
                        level=self.check_level, iel=config.iel, repetition=repetition
                    )
                )
            with collector_paused():
                metrics = self._run_repetition(rig, config, repetition)
            if self.check:
                report = rig.sim.checker.finalize(rig.system)
                reports.append(report)
                # The report spans the whole repetition; it rides on the
                # final phase's metrics next to the resilience data.
                metrics[phases[-1]].invariants = report.to_dict()
                self.progress(f"  invariants: {report.render()}")
            if self.tracer is not None:
                # Stop the tracer's clock at the repetition's end: bound
                # to the simulator, a tracer that outlives the unit would
                # keep the whole deployment reachable.
                end = rig.sim.now
                self.tracer.bind_clock(lambda: end)
            if self.keep_last_rig:
                rig, self.last_rig = self.last_rig, rig
            if rig is not None:
                # A rig this repetition does not keep, or the one its rig
                # replaces: collect it before the next paused window.
                rig = None
                gc.collect()
            for phase, phase_metrics in metrics.items():
                per_phase[phase].append(phase_metrics)
        if self.check:
            self.last_invariants = InvariantReport.merge(reports)
        result = UnitResult(
            label=config.label(),
            system=config.system,
            iel=config.iel,
            aggregate_rate=config.aggregate_rate,
            params=dict(config.params),
            scale=config.scale,
            phases={
                phase: PhaseResult(phase=phase, repetitions=reps)
                for phase, reps in per_phase.items()
            },
        )
        if self.store is not None:
            self.store.save(result)
        return result

    def _run_repetition(
        self, rig: Rig, config: BenchmarkConfig, repetition: int
    ) -> typing.Dict[str, PhaseMetrics]:
        """One repetition: run every phase of the unit sequentially."""
        clock = rig.system.stabilization_time
        metrics: typing.Dict[str, PhaseMetrics] = {}
        tracer = rig.sim.tracer
        injector: typing.Optional[FaultInjector] = None
        if config.fault_plan:
            from repro.faults.injector import FaultInjector

            # Action times are offsets from the first phase's start.
            injector = FaultInjector(rig.sim, rig.system, config.fault_plan)
            injector.install(epoch=clock)
        checker = rig.sim.checker
        for phase in config.phase_sequence:
            if checker.enabled:
                checker.set_phase(phase)
            # All clients wait for each other and start together
            # (Section 4.3: uniform load distribution).
            phase_start = clock
            for client in rig.clients:
                client.run_phase(phase, clock)
            clock += config.scaled_total
            # Both windows are known before anything executes, so the
            # resilience timeline can be armed now and filled as
            # payloads resolve.
            self._arm_resilience(rig, injector, phase, phase_start, clock)
            rig.sim.run(until=clock)
            if tracer.enabled:
                tracer.record_span(
                    "phase", category="bench", start=phase_start, end=clock,
                    phase=phase, repetition=repetition, system=config.system,
                    iel=config.iel,
                )
            merged = PhaseAccumulator.merged(
                [client.stream.accumulator(phase) for client in rig.clients], phase
            )
            metrics[phase] = PhaseMetrics.from_accumulator(merged, repetition)
            if merged.resilience is not None:
                report = merged.resilience.report()
                metrics[phase].resilience = report.to_dict()
                self.progress(f"  {phase} resilience: {report.render()}")
            # Records that never resolved are spilled and dropped so live
            # state cannot accumulate phase over phase.
            for client in rig.clients:
                client.finish_phase(phase)
            self.progress(
                f"  {phase}: {metrics[phase].received}/{metrics[phase].expected} received, "
                f"tps={metrics[phase].tps:.2f}, fls={metrics[phase].mean_fls:.2f}s"
            )
        peak = max(client.stream.peak_live for client in rig.clients)
        self.last_stream_peak = max(self.last_stream_peak, peak)
        self.last_stream_spilled += sum(client.stream.spilled for client in rig.clients)
        self.progress(f"  stream: peak live records/client {peak}")
        return metrics

    def _arm_resilience(
        self,
        rig: Rig,
        injector: typing.Optional[FaultInjector],
        phase: str,
        phase_start: float,
        phase_end: float,
    ) -> None:
        """Arm every client's resilience accumulator for a phase the
        fault window touches; healthy phases stay unarmed."""
        if injector is None:
            return
        window = injector.fault_window()
        if window is None or window[0] >= phase_end or window[1] <= phase_start:
            return
        for client in rig.clients:
            client.stream.accumulator(phase).resilience = ResilienceAccumulator(
                fault_start=max(window[0], phase_start),
                fault_end=min(window[1], phase_end),
                phase_start=phase_start,
                phase_end=phase_end,
            )
