"""Fault injection: partitions and probabilistic message loss.

The test suite uses this controller to verify that the consensus engines
tolerate (or correctly stall under) partitions and loss — e.g. that Raft
loses liveness without a majority and recovers when the partition heals —
and the :mod:`repro.faults` subsystem drives it from scheduled
:class:`~repro.faults.plan.FaultPlan` actions (``partition``, ``isolate``,
``loss_burst``). Loss comes in two granularities: ``drop_probability``
applies network-wide, per-pair rates (:meth:`set_loss`) affect only one
bidirectional path. The RNG is only consulted when a rate is actually
configured, so impairment-free runs draw nothing from the network stream.
The controller keeps an :attr:`~PartitionController.impaired` flag that
every change updates, so the network skips the per-message check
altogether while nothing is configured.
"""

from __future__ import annotations

import random
import typing


class PartitionController:
    """Decides, per message, whether delivery is allowed."""

    def __init__(self) -> None:
        self._blocked_pairs: typing.Set[typing.Tuple[str, str]] = set()
        self._isolated: typing.Set[str] = set()
        self._pair_loss: typing.Dict[typing.Tuple[str, str], float] = {}
        self._drop_probability = 0.0
        #: Whether any isolation, blocked pair or loss rate is configured;
        #: while it is False every message is allowed without a check.
        self.impaired = False

    def _update(self) -> None:
        self.impaired = bool(
            self._isolated or self._blocked_pairs or self._pair_loss or self._drop_probability
        )

    @property
    def drop_probability(self) -> float:
        """Network-wide probability of losing any one message."""
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, probability: float) -> None:
        self._drop_probability = probability
        self._update()

    def isolate(self, endpoint_id: str) -> None:
        """Cut the endpoint off from everyone."""
        self._isolated.add(endpoint_id)
        self._update()

    def heal_endpoint(self, endpoint_id: str) -> None:
        """Reconnect a previously isolated endpoint."""
        self._isolated.discard(endpoint_id)
        self._update()

    def block(self, a: str, b: str) -> None:
        """Cut the (bidirectional) path between two endpoints."""
        self._blocked_pairs.add((a, b))
        self._blocked_pairs.add((b, a))
        self._update()

    def unblock(self, a: str, b: str) -> None:
        """Restore the path between two endpoints."""
        self._blocked_pairs.discard((a, b))
        self._blocked_pairs.discard((b, a))
        self._update()

    def partition(self, group_a: typing.Iterable[str], group_b: typing.Iterable[str]) -> None:
        """Split the network into two groups that cannot reach each other."""
        for a in group_a:
            for b in group_b:
                self.block(a, b)

    def heal_all(self) -> None:
        """Remove every partition and isolation (loss probabilities stay)."""
        self._blocked_pairs.clear()
        self._isolated.clear()
        self._update()

    def set_loss(self, a: str, b: str, probability: float) -> None:
        """Impair the (bidirectional) path between two endpoints.

        Each message on the path is independently dropped with
        ``probability``, on top of any network-global ``drop_probability``.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {probability}")
        if probability == 0.0:
            self.clear_loss(a, b)
            return
        self._pair_loss[(a, b)] = probability
        self._pair_loss[(b, a)] = probability
        self._update()

    def clear_loss(self, a: str, b: str) -> None:
        """Remove the per-pair loss rate between two endpoints."""
        self._pair_loss.pop((a, b), None)
        self._pair_loss.pop((b, a), None)
        self._update()

    def loss_between(self, a: str, b: str) -> float:
        """The per-pair loss rate currently configured for a path."""
        return self._pair_loss.get((a, b), 0.0)

    def cuts(self, src: str, dst: str) -> bool:
        """Whether an isolation or a blocked pair cuts ``src -> dst``.

        Unlike :meth:`allows`, this ignores loss and never draws.
        """
        return src in self._isolated or dst in self._isolated or (src, dst) in self._blocked_pairs

    def allows(self, src: str, dst: str, rng: random.Random) -> bool:
        """Whether a message from ``src`` to ``dst`` may be delivered now."""
        # An unimpaired network consults no RNG (matching the per-check
        # guards below), so the early return cannot shift any stream.
        if not self.impaired:
            return True
        if self.cuts(src, dst):
            return False
        pair_loss = self._pair_loss.get((src, dst)) if self._pair_loss else None
        if pair_loss is not None and rng.random() < pair_loss:
            return False
        drop_probability = self._drop_probability
        if drop_probability > 0 and rng.random() < drop_probability:
            return False
        return True
