"""Delegated Proof of Stake — BitShares' consensus engine.

A fixed witness schedule (the paper's citation [28]): time is divided
into slots of ``block_interval`` seconds; the witness assigned to a slot
produces, signs and broadcasts the block for that slot, and every node
applies it on receipt. A new round starts whenever a block is finalized
(Section 2), which with a static witness set reduces to round-robin slot
assignment. Witnesses that are down simply miss their slot — no votes,
no view changes — which is why BitShares' throughput stays flat as the
network grows (Section 5.8.2): block production cost never depends on
the number of nodes.
"""

from __future__ import annotations

import typing

from repro.consensus.base import EngineContext, ReplicaEngine


class DposEngine(ReplicaEngine):
    """One BitShares node; a producer when it appears in the witness list."""

    def __init__(
        self,
        context: EngineContext,
        witnesses: typing.Sequence[str],
        block_interval: float = 5.0,
        proposal_factory: typing.Optional[typing.Callable[[int], object]] = None,
    ) -> None:
        super().__init__(context)
        if not witnesses:
            raise ValueError("DPoS requires at least one witness")
        unknown = [w for w in witnesses if w not in context.peers]
        if unknown:
            raise ValueError(f"witnesses not in peer group: {unknown}")
        if block_interval <= 0:
            raise ValueError(f"block_interval must be positive, got {block_interval}")
        self.witnesses = list(witnesses)
        self.block_interval = block_interval
        self.proposal_factory = proposal_factory
        self.produced_blocks = 0
        self.missed_slots = 0
        self._future_blocks: typing.Dict[int, typing.Tuple[object, str]] = {}

    @property
    def height(self) -> int:
        """The next height to apply: the length of the decided log."""
        return len(self.decided_log)

    # ------------------------------------------------------------------
    # Schedule

    def witness_for_slot(self, slot: int) -> str:
        """The witness assigned to ``slot``."""
        return self.witnesses[slot % len(self.witnesses)]

    @property
    def leader_id(self) -> str:
        """The witness scheduled for the slot in progress."""
        return self.witness_for_slot(int(self.context.now / self.block_interval))

    def slot_time(self, slot: int) -> float:
        """The wall-clock start of ``slot``."""
        return (slot + 1) * self.block_interval

    @property
    def is_witness(self) -> bool:
        """Whether this node is in the witness set."""
        return self.replica_id in self.witnesses

    def start(self) -> None:
        """Producers arm their slot timers."""
        if self.is_witness:
            self._schedule_slot(0)

    def recover(self) -> None:
        """Restart after a crash: sync missed blocks, then resume slots."""
        super().recover()
        peer = next((p for p in self.context.peers if p != self.replica_id), None)
        if peer is not None:
            self.context.send(peer, "dpos/sync_request", {"from_height": self.height})
        if self.is_witness:
            next_slot = int(self.context.now / self.block_interval) + 1
            self._schedule_slot(next_slot)

    def _schedule_slot(self, slot: int) -> None:
        delay = max(0.0, self.slot_time(slot) - self.context.now)
        self.context.after(delay, self._on_slot, slot)

    def _on_slot(self, slot: int) -> None:
        if self._stopped:
            return
        self._schedule_slot(slot + 1)
        if self.witness_for_slot(slot) != self.replica_id:
            return
        proposal = self.proposal_factory(slot) if self.proposal_factory else None
        tracer = self.context.tracer
        if tracer.enabled:
            # The slot interval is fixed by the schedule, so the span's
            # bounds are both known at production time.
            tracer.record_span(
                "dpos.slot", category="consensus", node=self.replica_id,
                start=self.context.now, end=self.slot_time(slot + 1),
                slot=slot, height=self.height, produced=proposal is not None,
            )
        if proposal is None:
            self.missed_slots += 1
            return
        self.produced_blocks += 1
        self.context.broadcast(
            "dpos/block",
            {"height": self.height, "slot": slot, "proposal": proposal},
            size_bytes=getattr(proposal, "size_bytes", 512),
        )
        self._decide(proposal, self.replica_id, self._slot_evidence(slot))

    # ------------------------------------------------------------------
    # Message handling

    def _on_block(self, sender: str, message: dict) -> None:
        if self.witness_for_slot(message["slot"]) != sender:
            return  # not that witness's slot; reject the forgery
        height = message["height"]
        if height < self.height:
            return  # already applied
        if height > self.height:
            # Out-of-order delivery; hold until the gap fills.
            self._future_blocks[height] = (message["proposal"], sender)
            return
        self._decide(message["proposal"], sender, self._slot_evidence(message["slot"]))

    def _on_sync_request(self, sender: str, message: dict) -> None:
        from_height = message["from_height"]
        self.context.send(
            sender,
            "dpos/sync_blocks",
            {"from_height": from_height, "blocks": self.decided_log[from_height:]},
        )

    def _on_sync_blocks(self, sender: str, message: dict) -> None:
        self._replay(message["from_height"], message["blocks"])

    handlers = {
        "dpos/block": _on_block,
        "dpos/sync_request": _on_sync_request,
        "dpos/sync_blocks": _on_sync_blocks,
    }
    message_kinds = frozenset(handlers)

    def _slot_evidence(self, slot: int) -> typing.Optional[typing.Dict[str, object]]:
        # The schedule travels with the evidence so the oracle can check
        # slot adherence and cross-replica consistency.
        if not self.context.checker.enabled:
            return None
        return {"kind": "dpos-slot", "slot": slot, "witnesses": tuple(self.witnesses)}

    def _decide(
        self,
        proposal: object,
        proposer: str,
        evidence: typing.Optional[typing.Dict[str, object]] = None,
    ) -> None:
        """Apply the next block, then a buffered block that now follows."""
        super()._decide(proposal, proposer, evidence)
        buffered = self._future_blocks.pop(self.height, None)
        if buffered is not None:
            # Like a sync replay: its producer recorded the slot-backed
            # decision.
            evidence = {"kind": "sync"} if self.context.checker.enabled else None
            self._decide(*buffered, evidence)
