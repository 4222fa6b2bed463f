"""FIFO stores: the queue between a producer and one consuming loop.

A :class:`Store` buffers the items a node's loop consumes one at a
time: decided blocks for a committer, receipts for an event emitter,
broker messages for the Kafka committer. Every store is unbounded and
has one consumer, which asks for the next item with a callback.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.kernel import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Store:
    """An unbounded FIFO buffer with at most one waiting consumer."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: collections.deque = collections.deque()
        self._getter: typing.Optional[typing.Callable[[object], None]] = None

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> None:
        """Insert ``item``, handing it straight to a waiting consumer."""
        getter = self._getter
        if getter is None:
            self._items.append(item)
        else:
            self._getter = None
            self.sim.schedule(0.0, getter, item)

    def get(self, callback: typing.Callable[[object], None]) -> None:
        """Take the oldest item: ``callback(item)`` runs one hop later.

        The hop is scheduled now when an item is queued, else by the
        :meth:`put` that brings one: the one hop a generator process
        paid to get an item (DESIGN §10).
        """
        if self._getter is not None:
            raise SimulationError(f"store {self.name!r} already has a waiting consumer")
        if self._items:
            self.sim.schedule(0.0, callback, self._items.popleft())
        else:
            self._getter = callback
