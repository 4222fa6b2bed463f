"""Integration tests for the runner, client, results and report."""

import gc
import tracemalloc
import weakref

import pytest

from repro.coconut import BenchmarkConfig, BenchmarkRunner, ResultStore
from repro.coconut.report import heatmap, unit_summary
from repro.coconut.results import UnitResult
from repro.faults import FaultPlan
from repro.sim.kernel import Simulator
from repro.trace import Tracer


@pytest.fixture(scope="module")
def fabric_result():
    config = BenchmarkConfig(
        system="fabric", iel="KeyValue", rate_limit=100, scale=0.02,
        repetitions=2, seed=11,
    )
    return BenchmarkRunner().run(config)


class TestRunner:
    def test_unit_runs_both_phases(self, fabric_result):
        assert set(fabric_result.phases) == {"Set", "Get"}

    def test_metrics_are_plausible(self, fabric_result):
        set_phase = fabric_result.phase("Set")
        assert set_phase.mtps.mean > 0
        assert set_phase.mfls.mean > 0
        assert set_phase.received.mean > 0
        assert set_phase.received.mean <= set_phase.expected.mean

    def test_repetition_count(self, fabric_result):
        assert len(fabric_result.phase("Set").repetitions) == 2

    def test_duration_within_listen_window(self, fabric_result):
        # D = t_lrtx - t_fstx can't exceed the listen window.
        config_listen = 330.0 * 0.02
        for rep in fabric_result.phase("Set").repetitions:
            assert rep.duration <= config_listen + 1e-6

    def test_expected_matches_offered_load(self, fabric_result):
        # 4 clients x 100/s x 6 s send window.
        set_phase = fabric_result.phase("Set")
        assert set_phase.expected.mean == pytest.approx(4 * 100 * 6.0, rel=0.05)

    def test_repetitions_are_reproducible(self):
        config = BenchmarkConfig(
            system="bitshares", iel="DoNothing", rate_limit=100, scale=0.02,
            repetitions=1, seed=21, params={"block_interval": 1.0},
        )
        first = BenchmarkRunner().run(config)
        second = BenchmarkRunner().run(config)
        assert first.phase("DoNothing").mtps.mean == second.phase("DoNothing").mtps.mean

    def test_progress_callback_invoked(self):
        lines = []
        config = BenchmarkConfig(
            system="quorum", iel="DoNothing", rate_limit=50, scale=0.02,
            repetitions=1, seed=3,
        )
        BenchmarkRunner(progress=lines.append).run(config)
        assert any("repetition" in line for line in lines)


class TestRunnerStateLeaks:
    """A reused runner must not carry one unit's state into the next."""

    @staticmethod
    def faulted_config():
        config = BenchmarkConfig(
            system="fabric", iel="DoNothing", rate_limit=5, scale=0.1,
            repetitions=1, seed=31,
        )
        send = config.scaled_send
        plan = FaultPlan()
        plan.kill_leader(at=0.25 * send)
        plan.restart("leader", at=0.5 * send)
        config.fault_plan = plan
        return config

    @staticmethod
    def healthy_config():
        return BenchmarkConfig(
            system="fabric", iel="DoNothing", rate_limit=5, scale=0.02,
            repetitions=1, seed=32,
        )

    def test_healthy_run_clears_stale_resilience(self):
        runner = BenchmarkRunner(keep_last_rig=False)
        faulted = runner.run(self.faulted_config())
        assert faulted.phase("DoNothing").resilience_report()  # it did report
        healthy = runner.run(self.healthy_config())
        assert healthy.phase("DoNothing").resilience_report() is None

    def test_tracer_does_not_pin_a_dropped_simulator(self, monkeypatch):
        simulators = []
        original = Simulator.set_tracer

        def recording(sim, tracer):
            simulators.append(weakref.ref(sim))
            original(sim, tracer)

        monkeypatch.setattr(Simulator, "set_tracer", recording)
        tracer = Tracer()
        runner = BenchmarkRunner(tracer=tracer, keep_last_rig=False)
        first = self.healthy_config()
        second = self.healthy_config()
        second.seed = 33
        runner.run(first)
        runner.run(second)
        assert len(simulators) == 2
        assert [ref() for ref in simulators] == [None, None]
        # The clock stays readable, stopped at the last unit's end.
        assert tracer.now == pytest.approx(len(second.phase_sequence) * second.scaled_total)


class TestCollectorPause:
    """The runner pauses the cyclic collector while a repetition runs,
    restores the caller's state, and collects every rig it drops."""

    @staticmethod
    def config(seed=41, iel="KeyValue", rate=100, system="fabric"):
        return BenchmarkConfig(
            system=system, iel=iel, rate_limit=rate, scale=0.02,
            repetitions=1, seed=seed,
        )

    class Watch:
        """Wraps ``Simulator.run`` to record, per call, whether the
        collector was enabled and how many collections started inside."""

        def __init__(self, monkeypatch):
            self.enabled = []
            self.collections = []
            self._running = False
            original = Simulator.run

            def run(sim, until=None):
                self.enabled.append(gc.isenabled())
                self.collections.append(0)
                self._running = True
                try:
                    return original(sim, until)
                finally:
                    self._running = False

            monkeypatch.setattr(Simulator, "run", run)

        def __call__(self, phase, info):
            if phase == "start" and self._running:
                self.collections[-1] += 1

        def __enter__(self):
            gc.callbacks.append(self)
            return self

        def __exit__(self, *exc):
            gc.callbacks.remove(self)

    def test_no_collection_while_the_simulation_runs(self, monkeypatch):
        with self.Watch(monkeypatch) as watch:
            BenchmarkRunner(keep_last_rig=False).run(self.config())
        assert watch.collections == [0, 0]  # Set and Get
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_the_callers_collector_state(self, enabled, monkeypatch):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with self.Watch(monkeypatch) as watch:
                BenchmarkRunner().run(self.config())
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert watch.enabled == [False, False]
        assert after is enabled

    def test_a_raising_unit_restores_the_collector(self, monkeypatch):
        paused = []

        def failing_run(sim, until=None):
            paused.append(not gc.isenabled())
            raise RuntimeError("unit failed")

        monkeypatch.setattr(Simulator, "run", failing_run)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="unit failed"):
            BenchmarkRunner().run(self.config())
        assert paused == [True]
        assert gc.isenabled()

    @pytest.mark.parametrize("system", ["fabric", "corda_os"])
    def test_a_batch_holds_one_deployment_at_a_time(self, system):
        # Each dropped rig is one large cyclic graph. Left to the
        # collector, which is paused while units run, every unit of a
        # sweep would stay in memory until it next ran on its own. The
        # runner's one collection pass frees it whole: a Corda rig
        # holds flows in flight, and none of them is a generator whose
        # finalizer could schedule entries back into the dropped graph.
        from repro.parallel.executor import Executor

        runner = BenchmarkRunner(keep_last_rig=False)
        tracemalloc.start()
        try:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            runner.run(self.config(seed=42, iel="DoNothing", rate=40, system=system))
            one = tracemalloc.get_traced_memory()[1] - base
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            Executor().run_units([
                self.config(seed=43 + i, iel="DoNothing", rate=40, system=system)
                for i in range(3)
            ])
            three = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert three < 1.5 * one, f"3 units peaked at {three} B, one unit at {one} B"


class TestResultStore:
    def test_round_trip(self, fabric_result, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(fabric_result)
        assert path.exists()
        loaded = store.load(fabric_result.label)
        assert loaded.label == fabric_result.label
        assert loaded.phase("Set").mtps.mean == pytest.approx(
            fabric_result.phase("Set").mtps.mean
        )
        assert store.labels() == [path.stem]

    def test_runner_persists_when_given_store(self, tmp_path):
        store = ResultStore(tmp_path)
        config = BenchmarkConfig(
            system="fabric", iel="DoNothing", rate_limit=50, scale=0.02,
            repetitions=1, seed=5,
        )
        result = BenchmarkRunner(store=store).run(config)
        assert store.labels() == [store.path_for(result.label).stem]

    def test_distinct_labels_get_distinct_paths(self, tmp_path):
        # Sanitisation alone would map both to rate_100.json and the
        # second save would silently overwrite the first.
        store = ResultStore(tmp_path)
        assert store.path_for("rate:100") != store.path_for("rate_100")

    def test_safe_labels_keep_pretty_names(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.path_for("fabric-DoNothing-rl200").stem == "fabric-DoNothing-rl200"

    def test_unsafe_label_round_trips(self, fabric_result, tmp_path):
        store = ResultStore(tmp_path)
        relabelled = UnitResult.from_dict(fabric_result.to_dict())
        relabelled.label = "fabric:KeyValue rl=100"
        store.save(relabelled)
        assert store.load("fabric:KeyValue rl=100").label == "fabric:KeyValue rl=100"


class TestReport:
    def test_unit_summary_mentions_phases(self, fabric_result):
        text = unit_summary(fabric_result)
        assert "Set" in text and "Get" in text

    def test_heatmap_marks_failures(self, fabric_result):
        grid = heatmap(
            {("Set", "Fabric"): fabric_result.phase("Set")},
            row_labels=["Set", "Get"],
            column_labels=["Fabric", "Quorum"],
        )
        assert "MTPS=" in grid
        assert "FAIL" in grid  # the missing cells
