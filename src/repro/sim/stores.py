"""FIFO stores with optional capacity bounds.

A :class:`Store` is the queueing primitive used throughout the node models:
transaction pools, pending-batch queues, client event inboxes. Putting and
getting return events, so processes block naturally when the store is full
or empty. ``try_put`` provides the non-blocking admission-control path that
Sawtooth's backpressure queue needs (reject instead of wait).
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Store:
    """A FIFO buffer of items with an optional capacity.

    ``capacity=None`` means unbounded. Waiting getters are served strictly
    in arrival order; waiting putters likewise.
    """

    def __init__(self, sim: "Simulator", capacity: typing.Optional[int] = None, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque = collections.deque()
        self._putters: collections.deque = collections.deque()
        #: Every request event's name, formatted once per store.
        self._put_label = f"put:{name}"
        self._get_label = f"get:{name}"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """Whether a new item would exceed capacity right now."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: object) -> Event:
        """Insert ``item``, returning an event that fires once it is stored."""
        event = Event(self.sim, name=self._put_label)
        if self.is_full:
            self._putters.append((event, item))
        else:
            self._insert(item)
            event.succeed(item)
        return event

    def try_put(self, item: object) -> bool:
        """Insert ``item`` only if there is room; return whether it was stored."""
        if self.is_full:
            return False
        self._insert(item)
        return True

    def get(self) -> Event:
        """Remove the oldest item, returning an event firing with it."""
        event = Event(self.sim, name=self._get_label)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_waiting_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> typing.Tuple[bool, object]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._admit_waiting_putter()
        return True, item

    def drain(self, limit: typing.Optional[int] = None) -> list:
        """Remove and return up to ``limit`` items (all, if ``None``).

        Block-cutting uses this: take whatever is queued, up to the block
        size, without blocking.
        """
        count = len(self._items) if limit is None else min(limit, len(self._items))
        taken = [self._items.popleft() for __ in range(count)]
        for __ in range(count):
            if not self._admit_waiting_putter():
                break
        return taken

    def peek_all(self) -> list:
        """A snapshot of queued items, oldest first (diagnostic)."""
        return list(self._items)

    def _insert(self, item: object) -> None:
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def _admit_waiting_putter(self) -> bool:
        if not self._putters or self.is_full:
            return False
        event, item = self._putters.popleft()
        self._insert(item)
        event.succeed(item)
        return True
