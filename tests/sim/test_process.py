"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Interrupt, Simulator
from repro.sim.events import SimulationError


@pytest.fixture()
def sim():
    return Simulator(seed=1)


class TestProcessLifecycle:
    def test_process_runs_and_returns(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return "value"

        process = sim.spawn(proc())
        sim.run()
        assert process.triggered
        assert process.value == "value"
        assert sim.now == 3.0

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)

    def test_yield_receives_event_value(self, sim):
        received = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            received.append(value)

        sim.spawn(proc())
        sim.run()
        assert received == ["payload"]

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(3.0)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return f"got {result}"

        parent_proc = sim.spawn(parent())
        sim.run()
        assert parent_proc.value == "got child-result"

    def test_unhandled_exception_fails_process(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("inner error")

        process = sim.spawn(proc())
        sim.run()
        assert process.triggered
        assert not process.ok
        assert isinstance(process.exception, ValueError)

    def test_failure_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("child error")

        caught = []

        def parent():
            try:
                yield sim.spawn(child())
            except ValueError as error:
                caught.append(str(error))

        sim.spawn(parent())
        sim.run()
        assert caught == ["child error"]

    def test_yielding_non_event_fails(self, sim):
        def proc():
            yield 42

        process = sim.spawn(proc())
        sim.run()
        assert not process.ok
        assert isinstance(process.exception, SimulationError)


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def proc():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)

        process = sim.spawn(proc())

        def interrupter():
            yield sim.timeout(1.0)
            process.interrupt("stop now")

        sim.spawn(interrupter())
        sim.run()
        assert causes == ["stop now"]
        # The process itself finished at t=1 (the stale timeout still
        # drains the queue but resumes nothing).
        assert process.triggered and process.ok

    def test_interrupt_finished_process_is_noop(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        process = sim.spawn(proc())
        sim.run()
        process.interrupt("late")  # must not raise
        assert process.value == "done"

    def test_stale_event_after_interrupt_ignored(self, sim):
        log = []

        def proc():
            try:
                yield sim.timeout(5.0, value="original")
            except Interrupt:
                value = yield sim.timeout(10.0, value="after-interrupt")
                log.append(value)

        process = sim.spawn(proc())

        def interrupter():
            yield sim.timeout(1.0)
            process.interrupt()

        sim.spawn(interrupter())
        sim.run()
        # The original timeout fires at t=5 but must not resume the process;
        # only the post-interrupt timeout at t=11 may.
        assert log == ["after-interrupt"]


class TestWakeupSemantics:
    """Interrupt and kill over the one wake-up path."""

    def test_kill_closes_generator_and_releases_waiters(self, sim):
        log = []

        def victim():
            try:
                yield sim.timeout(10.0)
                log.append("body ran")
            finally:
                log.append(("closed", sim.now))

        process = sim.spawn(victim())

        def waiter():
            value = yield process
            log.append(("released", value, sim.now))

        sim.spawn(waiter())
        sim.schedule(2.0, process.kill)
        sim.run()
        assert log == [("closed", 2.0), ("released", None, 2.0)]
        assert not process.is_alive
        process.kill()  # killing a finished process is a no-op
        assert process.ok

    def test_double_interrupt_throws_twice(self, sim):
        causes = []

        def proc():
            for __ in range(2):
                try:
                    yield sim.timeout(10.0)
                except Interrupt as interrupt:
                    causes.append((interrupt.cause, sim.now))

        process = sim.spawn(proc())
        sim.schedule(1.0, process.interrupt, "a")
        sim.schedule(1.0, process.interrupt, "b")
        sim.run()
        assert causes == [("a", 1.0), ("b", 1.0)]
