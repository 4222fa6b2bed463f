"""Counted resources (semaphores) for modelling bounded concurrency.

Corda's flow-worker thread pools, notary signing slots and every node's
CPU are all bounded concurrency: at most ``capacity`` holders at a
time, FIFO admission for waiters. A holder is either a process (it
yields :meth:`Resource.acquire`) or a callback job (:meth:`Resource.hold`,
which makes the same scheduling calls without a generator).
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Resource:
    """A semaphore with ``capacity`` slots and one FIFO queue of waiters:
    acquire events and :meth:`request` callbacks, in arrival order."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: collections.deque = collections.deque()
        #: Every acquire event's name, formatted once per resource.
        self._acquire_label = f"acquire:{name}"

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self._in_use

    @property
    def queued(self) -> int:
        """Number of waiters (processes and callbacks) queued for a slot."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request a slot; the returned event fires once it is granted."""
        event = Event(self.sim, name=self._acquire_label)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def request(self, callback: typing.Callable[..., None], *args: object) -> None:
        """Request a slot; ``callback(*args)`` runs once it is granted.

        The grant is one ``schedule(0.0, ...)``: now when a slot is free,
        else at the :meth:`release` that hands one over. That is the hop
        a process pays between ``yield acquire()`` and its resumption.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim.schedule(0.0, callback, *args)
        else:
            self._waiters.append((callback, args))

    def release(self) -> None:
        """Return a slot, admitting the oldest waiter if any.

        Both kinds of waiter are granted with one ``schedule(0.0, ...)``:
        a callback's directly, and an acquire event's by succeeding it,
        which flushes the wake-up of the one process waiting on it.
        """
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            if type(waiter) is tuple:
                callback, args = waiter
                self.sim.schedule(0.0, callback, *args)
            else:
                waiter.succeed()
        else:
            self._in_use -= 1

    def hold(self, duration: float, callback: typing.Callable[..., None], *args: object) -> None:
        """A one-shot job: hold a slot for ``duration``, then release it
        and run ``callback(*args)``.

        Hop for hop, this makes the ``schedule`` calls of a process doing
        ``yield acquire()``, ``yield sim.timeout(duration)``,
        ``release()`` and then the continuation: the grant hop, the
        duration timer, and one ready-lane hop after the timer fires, in
        which the slot is released and ``callback`` runs. A duration that
        is not positive skips the timer and its hop, as ``busy()`` does.
        """
        self.request(self._held, duration, callback, args)

    def _held(self, duration: float, callback: typing.Callable[..., None], args: tuple) -> None:
        if duration > 0:
            self.sim.resume_after(duration, self._finish, callback, args)
        else:
            self._finish(callback, args)

    def _finish(self, callback: typing.Callable[..., None], args: tuple) -> None:
        self.release()
        callback(*args)
