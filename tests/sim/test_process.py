"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Simulator
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
