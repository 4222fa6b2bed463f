"""Counted resources (semaphores) for modelling bounded concurrency.

Corda's flow-worker thread pools, notary signing slots and every node's
CPU are all bounded concurrency: at most ``capacity`` holders at a
time, FIFO admission for waiters. A holder asks with a callback
(:meth:`Resource.request`) and gives the slot back with
:meth:`Resource.release`; :meth:`Resource.hold` is a whole CPU job.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.kernel import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Resource:
    """A semaphore with ``capacity`` slots and one FIFO queue of
    :meth:`request` callbacks."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: collections.deque = collections.deque()

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
        """Number of callbacks queued for a slot."""
        return len(self._waiters)

    def request(self, callback: typing.Callable[..., None], *args: object) -> None:
        """Request a slot; ``callback(*args)`` runs once it is granted.

        The grant is one ``schedule(0.0, ...)``: now when a slot is free,
        else at the :meth:`release` that hands one over: the one hop a
        generator process paid to acquire a slot (DESIGN §10).
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim.schedule(0.0, callback, *args)
        else:
            self._waiters.append((callback, args))

    def release(self) -> None:
        """Return a slot, handing it to the oldest waiter if any, whose
        grant is one ``schedule(0.0, ...)``."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            callback, args = self._waiters.popleft()
            self.sim.schedule(0.0, callback, *args)
        else:
            self._in_use -= 1

    def hold(self, duration: float, callback: typing.Callable[..., None], *args: object) -> None:
        """A one-shot job: hold a slot for ``duration``, then release it
        and run ``callback(*args)``.

        The grant hop runs :meth:`Simulator.resume_after
        <repro.sim.kernel.Simulator.resume_after>` itself: the duration
        timer, and the ready-lane hop it queues, in which the slot is
        released and ``callback`` runs. These are the queue entries of a
        generator process that acquired the slot, waited out
        ``duration`` and released it. A duration that is not positive
        skips the timer and its hop: the grant hop releases the slot and
        runs ``callback``.
        """
        if duration > 0:
            self.request(self.sim.resume_after, duration, _finish, self, callback, args)
        else:
            self.request(_finish, self, callback, args)


def _finish(resource: Resource, callback: typing.Callable[..., None], args: tuple) -> None:
    """The end of a :meth:`Resource.hold` job: release the slot, run
    ``callback(*args)``. A plain function, so that a job queued for a
    busy slot holds no bound method of its own."""
    resource.release()
    callback(*args)
