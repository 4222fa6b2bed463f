"""Kafka-backed ordering — Fabric's pre-Raft ordering service.

Section 5.4 compares the two: with Kafka, Fabric loses *no* transactions
at RL=1600 but runs slower, because every envelope takes a round trip
through an external broker cluster before any orderer sees it in order.
The paper attributes Raft's lost transactions and "malfunctioning
orderers" to Raft's relative immaturity, which the Raft-path model
expresses as event-delivery overload; the Kafka path trades that for
per-envelope broker latency.

The model: a single logical broker endpoint (the Kafka cluster) with a
publish queue. Producers (orderers) publish envelopes; the broker
assigns offsets at a bounded throughput and fans each committed offset
back to every orderer, which then cut blocks deterministically from the
totally ordered stream.
"""

from __future__ import annotations

import typing

from repro.sim.kernel import Simulator
from repro.sim.stores import Store


class KafkaBroker:
    """The ordering backbone: a totally ordered, replicated log.

    Not an :class:`~repro.net.network.Endpoint` subclass by itself —
    the hosting system wires it to the network; this class holds the
    offset log and the service model.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "kafka",
        publish_latency: float = 0.030,
        per_message_cost: float = 0.0005,
    ) -> None:
        if publish_latency < 0 or per_message_cost < 0:
            raise ValueError("Kafka service times must be non-negative")
        self.sim = sim
        self.name = name
        self.publish_latency = publish_latency
        self.per_message_cost = per_message_cost
        self._queue: Store = Store(sim, name=f"{name}-publish")
        self._log: typing.List[object] = []
        self._subscribers: typing.List[typing.Callable[[int, object], None]] = []
        self.sim.schedule(0.0, self._queue.get, self._commit)

    def subscribe(self, callback: typing.Callable[[int, object], None]) -> None:
        """Deliver every committed (offset, message) to ``callback``.

        New subscribers replay the existing log first (a consumer
        starting from offset 0).
        """
        for offset, message in enumerate(self._log):
            self.sim.schedule(0.0, callback, offset, message)
        self._subscribers.append(callback)

    def replay(self, from_offset: int, callback: typing.Callable[[int, object], None]) -> None:
        """Re-deliver committed messages from ``from_offset`` onward.

        A consumer recovering from a crash resumes from its last seen
        offset; the broker retains the whole log (no compaction in the
        benchmark's time frame), so the gap is always available.
        """
        if from_offset < 0:
            raise ValueError(f"negative offset: {from_offset}")
        for offset in range(from_offset, len(self._log)):
            self.sim.schedule(0.0, callback, offset, self._log[offset])

    def publish(self, message: object) -> None:
        """Enqueue a message for ordering.

        The publish latency (producer -> broker wire plus replication
        ack) delays arrival but does not occupy the broker; only the
        per-message processing serialises.
        """
        self.sim.schedule(self.publish_latency, self._queue.put, message)

    def _commit(self, message: object) -> None:
        """The committer: spend the per-message cost on one published
        message, then append it (a loop over the publish queue)."""
        if self.per_message_cost > 0:
            self.sim.resume_after(self.per_message_cost, self._append, message)
        else:
            self._append(message)

    def _append(self, message: object) -> None:
        offset = len(self._log)
        self._log.append(message)
        for callback in list(self._subscribers):
            callback(offset, message)
        self._queue.get(self._commit)

    def log_size(self) -> int:
        """Committed messages so far."""
        return len(self._log)
