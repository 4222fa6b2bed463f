"""The generator-process driver, kept as the hop-exactness reference.

The simulation's long-lived loops, Corda's flows and its notary used to
run as generator processes: a :class:`Process` stepped a generator that
yielded events (:class:`Timeout`, :class:`AnyOf`, :class:`AllOf`, a
store's get, a resource's acquire) and resumed when they fired. They
now run as plain ``schedule`` callbacks that make the same scheduling
calls, hop for hop. This module is the machinery they replaced, driving
the real :class:`~repro.sim.kernel.Simulator`, so that tests can run a
generator version and a callback version of the same program and
compare every ``schedule`` call.

:class:`ReferenceSimulator` adds ``event``, ``timeout`` and ``spawn``;
:class:`ReferenceResource` adds the event-returning ``acquire``, whose
waiters share the real resource's FIFO with callback requests, which
the real ``release`` grants;
:class:`ReferenceStore` is the event-returning FIFO store the loops
waited on. Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.resources import Resource

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()


class Event:
    """A one-shot triggerable occurrence in simulated time.

    Processes wait on events by yielding them; arbitrary code can subscribe
    with :meth:`add_callback`. An event is either *pending*, *succeeded*
    (carrying a value) or *failed* (carrying an exception).
    """

    __slots__ = ("sim", "_callbacks", "_value", "_exception", "_name")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self._callbacks: list = []
        self._value: object = _PENDING
        self._exception: typing.Optional[BaseException] = None
        self._name = name

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired (successfully or not)."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully."""
        return self._value is not _PENDING and self._exception is None

    @property
    def value(self) -> object:
        """The value the event fired with (raises for failed or pending events)."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    @property
    def exception(self) -> typing.Optional[BaseException]:
        """The exception of a failed event, or ``None``."""
        return self._exception

    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires; on the next
        kernel step if it already fired."""
        if self._value is not _PENDING or self._exception is not None:
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def succeed(self, value: object = None) -> "Event":
        """Fire the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        if self._callbacks:
            self._flush()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        if self._callbacks:
            self._flush()
        return self

    def _flush(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        schedule = self.sim.schedule
        for callback in callbacks:
            schedule(0.0, callback, self)

    def _label(self) -> str:
        return self._name or self.__class__.__name__

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self.ok else "failed"
        return f"<{self._label()} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event triggered by the kernel after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: object = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        sim.schedule(delay, self.succeed, value)

    def _label(self) -> str:
        return f"Timeout({self.delay})"


class _Condition(Event):
    """Common machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: Simulator, events: typing.Sequence[Event]) -> None:
        super().__init__(sim, name=self.__class__.__name__)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            sim.schedule(0.0, self.succeed, {})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def detach(self) -> None:
        """Stop waiting: take this condition's callback off every child
        still pending, and detach a child condition then left with no
        waiter (a pending child and its condition reference each other)."""
        on_child = self._on_child
        for event in self.events:
            callbacks = event._callbacks
            if on_child in callbacks:
                callbacks.remove(on_child)
                if not callbacks and isinstance(event, _Condition):
                    event.detach()

    def _results(self) -> dict:
        return {e: e.value for e in self.events if e.ok}


class AnyOf(_Condition):
    """Fires when the first child fires, with the fired children's values."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(self._results())


class AllOf(_Condition):
    """Fires once every child has fired; the first failing child fails it."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._results())


class Process(Event):
    """Drives a generator: yield an event to wait for it. The generator's
    return value (or unhandled exception) fires the process event."""

    __slots__ = ("_generator",)

    def __init__(self, sim: Simulator, generator: typing.Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        sim.schedule(0.0, self._step, None)

    def _step(self, event: typing.Optional[Event]) -> None:
        """Resume the generator with ``event``'s outcome (``None`` at the start)."""
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
        if target._value is _PENDING and target._exception is None:
            target._callbacks.append(self._step)
        else:
            self.sim.schedule(0.0, self._step, target)


class ReferenceSimulator(Simulator):
    """The real kernel plus the generator-process entry points."""

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create a :class:`Timeout` firing after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def spawn(self, generator: typing.Generator, name: str = "") -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)


class ReferenceResource(Resource):
    """A resource whose waiters may also be acquire events, granted in
    one FIFO with :meth:`~repro.sim.resources.Resource.request` callbacks."""

    def acquire(self) -> Event:
        """Request a slot; the returned event fires once it is granted."""
        event = Event(self.sim, name=f"acquire:{self.name}")
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a slot: an acquire event at the head of the queue is
        granted by succeeding it; anything else is the real release."""
        waiters = self._waiters
        if waiters and isinstance(waiters[0], Event):
            waiters.popleft().succeed()
        else:
            super().release()


def busy(sim: Simulator, cpu: ReferenceResource, duration: float) -> typing.Generator:
    """Occupy ``cpu`` for ``duration``: the loops' generator CPU helper."""
    yield cpu.acquire()
    try:
        if duration > 0:
            yield sim.timeout(duration)
    finally:
        cpu.release()


class ReferenceStore:
    """An unbounded FIFO buffer whose ``get`` and ``put`` return events;
    waiting getters are served in arrival order."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque = collections.deque()

    def put(self, item: object) -> Event:
        """Insert ``item``, returning an event that has fired with it."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        return Event(self.sim, name=f"put:{self.name}").succeed(item)

    def get(self) -> Event:
        """Remove the oldest item, returning an event firing with it."""
        event = Event(self.sim, name=f"get:{self.name}")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
