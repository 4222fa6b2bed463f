"""Generator-based simulation processes.

A process wraps a Python generator. The generator yields events (or other
processes, which are themselves events); the process resumes with the
event's value when it fires, or with the event's exception thrown at the
yield point when it fails. A process is itself an :class:`Event` that fires
with the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

import typing

from repro.sim.events import _PENDING, Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Process(Event):
    """Drives a generator through the simulation.

    Yield an :class:`Event` to wait for it. The generator's ``return``
    value becomes the process's event value. Unhandled exceptions fail the
    process event, propagating to any process waiting on it.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: typing.Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        sim.schedule(0.0, self._step, None)

    def _step(self, event: typing.Optional[Event]) -> None:
        """Resume the generator: the one wake-up path.

        As the wait target's callback, ``event`` is that target and its
        outcome is sent (or thrown) in. The start passes ``None``, which
        sends ``None``. A process waits on one target at a time and every
        event fires once, so each call is the single wake-up its last
        yield asked for.
        """
        try:
            if event is None:
                target = self._generator.send(None)
            elif event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - must fail the event
            self.fail(error)
            return
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(SimulationError(f"process {self._name!r} yielded non-event {target!r}"))
            return
        # Event.add_callback, inlined: one per yield.
        if target._value is _PENDING and target._exception is None:
            target._callbacks.append(self._step)
        else:
            self.sim.schedule(0.0, self._step, target)
