"""Practical Byzantine Fault Tolerance — Sawtooth's consensus engine.

Castro & Liskov's three-phase protocol (the paper's citation [20]): a
stable primary assigns sequence numbers and broadcasts pre-prepare;
replicas broadcast prepare; once a replica holds a BFT quorum of prepares
it broadcasts commit; once it holds a BFT quorum of commits the slot is
committed and executed in sequence order. Replicas that see no progress
vote for a view change; the new primary re-drives undecided slots.

Sawtooth paces proposals with ``block_publishing_delay``, which the node
layer implements by calling :meth:`PbftEngine.maybe_propose` on a timer.
"""

from __future__ import annotations

import typing

from repro.consensus.base import Decision, EngineContext, ReplicaEngine

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import TimerHandle


class _Slot:
    """Per-sequence voting state."""

    __slots__ = ("proposal", "proposer", "digest", "prepares", "commits", "sent_prepare",
                 "sent_commit", "committed")

    def __init__(self) -> None:
        self.proposal: object = None
        self.proposer: str = ""
        self.digest: str = ""
        self.prepares: typing.Set[str] = set()
        self.commits: typing.Set[str] = set()
        self.sent_prepare = False
        self.sent_commit = False
        self.committed = False


def proposal_digest(proposal: object) -> str:
    """The short identifier protocol messages vote on."""
    digest = getattr(proposal, "proposal_id", None)
    if digest is None:
        digest = getattr(proposal, "block_hash", None)
    if digest is None:
        digest = repr(proposal)
    return str(digest)


class PbftEngine(ReplicaEngine):
    """One PBFT replica."""

    message_kinds = frozenset({
        "pbft/pre_prepare",
        "pbft/prepare",
        "pbft/commit",
        "pbft/view_change",
        "pbft/new_view",
        "pbft/sync_request",
        "pbft/sync_response",
    })

    def __init__(
        self,
        context: EngineContext,
        proposal_factory: typing.Optional[typing.Callable[[int], object]] = None,
        progress_timeout: float = 4.0,
        max_in_flight: int = 8,
    ) -> None:
        super().__init__(context)
        self.proposal_factory = proposal_factory
        self.progress_timeout = progress_timeout
        self.max_in_flight = max_in_flight
        self.view = 0
        self.next_sequence = 0  # next seq this primary will assign
        self.executed_through = -1  # highest sequence delivered in order
        self._slots: typing.Dict[int, _Slot] = {}
        #: Executed decisions in sequence order, kept to answer peers'
        #: sync requests after they recover from a crash.
        self._decided_log: typing.List[typing.Tuple[object, str]] = []
        self._view_change_votes: typing.Dict[int, typing.Set[str]] = {}
        #: Handle of the pending progress timer; re-arming cancels the
        #: previous one in O(1) instead of leaving a fire-and-check
        #: no-op behind in the event queue.
        self._progress_timer: typing.Optional["TimerHandle"] = None
        self._timer_active = False
        self._external_pending = False
        self._stopped = False
        self._last_gap_sync_at: typing.Optional[float] = None

    # ------------------------------------------------------------------
    # Roles

    @property
    def leader_id(self) -> str:
        """The stable primary of the current view."""
        return self.context.peers[self.view % self.context.n]

    @property
    def is_primary(self) -> bool:
        """Whether this replica leads the current view."""
        return self.replica_id == self.leader_id and not self._stopped

    def stop(self) -> None:
        """Crash this replica."""
        self._stopped = True

    def recover(self) -> None:
        """Restart after a crash: rejoin and pull missed decisions.

        PBFT replicas crash with their voting state intact up to
        ``executed_through`` (the decided log is durable); everything the
        group executed while this replica was down is fetched from peers
        via ``pbft/sync_request`` and replayed in sequence order.
        """
        self._stopped = False
        self.context.broadcast(
            "pbft/sync_request", {"from_seq": self.executed_through + 1}
        )
        if self._has_pending_work():
            self._arm_progress_timer()

    # ------------------------------------------------------------------
    # Proposing

    def maybe_propose(self) -> bool:
        """If primary and a proposal is available, start a new slot.

        Returns whether a proposal was made. The node layer calls this on
        its block-publishing timer.
        """
        if not self.is_primary or self.proposal_factory is None:
            return False
        if self.next_sequence - self.executed_through > self.max_in_flight:
            return False  # bounded pipeline, as sawtooth-pbft enforces
        proposal = self.proposal_factory(self.next_sequence)
        if proposal is None:
            return False
        self.submit_proposal(proposal)
        return True

    def submit_proposal(self, proposal: object) -> None:
        """Primary path: assign a sequence and broadcast pre-prepare."""
        if not self.is_primary:
            return
        sequence = self.next_sequence
        self.next_sequence += 1
        digest = proposal_digest(proposal)
        slot = self._slot(sequence)
        slot.proposal = proposal
        slot.proposer = self.replica_id
        slot.digest = digest
        size = getattr(proposal, "size_bytes", 512)
        self._trace_phase_begin("prepare", sequence)
        self.context.broadcast(
            "pbft/pre_prepare",
            {"view": self.view, "seq": sequence, "proposal": proposal, "digest": digest},
            size_bytes=size,
        )
        # The primary counts as pre-prepared and prepared for its own slot.
        slot.prepares.add(self.replica_id)
        slot.sent_prepare = True
        self._arm_progress_timer()

    # ------------------------------------------------------------------
    # Message handling

    def on_message(self, kind: str, sender: str, payload: object) -> None:
        if self._stopped:
            return
        message = typing.cast(dict, payload)
        if kind == "pbft/pre_prepare":
            self._on_pre_prepare(sender, message)
        elif kind == "pbft/prepare":
            self._on_prepare(sender, message)
        elif kind == "pbft/commit":
            self._on_commit(sender, message)
        elif kind == "pbft/view_change":
            self._on_view_change(sender, message)
        elif kind == "pbft/new_view":
            self._on_new_view(sender, message)
        elif kind == "pbft/sync_request":
            self._on_sync_request(sender, message)
        elif kind == "pbft/sync_response":
            self._on_sync_response(sender, message)

    def _slot(self, sequence: int) -> _Slot:
        if sequence not in self._slots:
            self._slots[sequence] = _Slot()
        return self._slots[sequence]

    # ------------------------------------------------------------------
    # Tracing: one span per protocol phase per slot on this replica
    # (pre-prepare -> prepared, prepared -> committed).

    def _trace_phase_begin(self, phase: str, sequence: int) -> None:
        tracer = self.context.tracer
        if tracer.enabled:
            tracer.begin(
                ("pbft", phase, self.replica_id, sequence),
                f"pbft.{phase}", category="consensus", node=self.replica_id,
                seq=sequence, view=self.view,
            )

    def _trace_phase_end(self, phase: str, sequence: int) -> None:
        tracer = self.context.tracer
        if tracer.enabled:
            tracer.end(("pbft", phase, self.replica_id, sequence))

    def _maybe_request_gap_sync(self, sender: str, sequence: int) -> None:
        """Pull decisions a partition made us miss.

        ``recover()`` only syncs after a crash; a replica that was merely
        cut off never crashes, so when traffic arrives for a slot far
        beyond anything it can execute — and the next slot it needs has
        no pre-prepare — the decisions in between were missed on the
        wire and must be fetched. The far-beyond threshold is the
        primary's own pipeline bound: within ``max_in_flight`` a missing
        pre-prepare can still be ordinary message reordering.
        """
        if not self.recovery_mode:
            return
        next_needed = self.executed_through + 1
        if sequence <= next_needed + self.max_in_flight:
            return
        slot = self._slots.get(next_needed)
        if slot is not None and slot.proposal is not None:
            return  # the pipeline is intact, just deep
        now = self.context.now
        if self._last_gap_sync_at is not None and (
            now - self._last_gap_sync_at < self.progress_timeout
        ):
            return
        self._last_gap_sync_at = now
        self.context.send(sender, "pbft/sync_request", {"from_seq": next_needed})

    def _on_pre_prepare(self, sender: str, message: dict) -> None:
        self._maybe_request_gap_sync(sender, message["seq"])
        if message["view"] != self.view or sender != self.leader_id:
            return
        sequence = message["seq"]
        slot = self._slot(sequence)
        if slot.proposal is not None and slot.digest != message["digest"]:
            return  # conflicting pre-prepare from an equivocating primary
        slot.proposal = message["proposal"]
        slot.proposer = sender
        slot.digest = message["digest"]
        self._trace_phase_begin("prepare", sequence)
        slot.prepares.add(self.replica_id)
        slot.prepares.add(sender)  # pre-prepare doubles as the primary's prepare
        if not slot.sent_prepare:
            slot.sent_prepare = True
            self.context.broadcast(
                "pbft/prepare",
                {"view": self.view, "seq": sequence, "digest": slot.digest},
            )
        # In recovery mode, arm — but never reset — the progress timer:
        # a post-heal primary that keeps pre-preparing blocks which
        # never execute must not be able to postpone the view change
        # forever. The watermark check in the timeout tells real
        # progress from mere traffic.
        if not (self.recovery_mode and self._timer_active):
            self._arm_progress_timer()
        self._check_prepared(sequence)

    def _on_prepare(self, sender: str, message: dict) -> None:
        if message["view"] != self.view:
            return
        slot = self._slot(message["seq"])
        if slot.digest and message["digest"] != slot.digest:
            return
        slot.prepares.add(sender)
        self._check_prepared(message["seq"])

    def _check_prepared(self, sequence: int) -> None:
        slot = self._slot(sequence)
        if slot.sent_commit or slot.proposal is None:
            return
        if len(slot.prepares) >= self.context.bft_quorum:
            slot.sent_commit = True
            slot.commits.add(self.replica_id)
            self._trace_phase_end("prepare", sequence)
            self._trace_phase_begin("commit", sequence)
            self.context.broadcast(
                "pbft/commit",
                {"view": self.view, "seq": sequence, "digest": slot.digest},
            )
            self._check_committed(sequence)

    def _on_commit(self, sender: str, message: dict) -> None:
        self._maybe_request_gap_sync(sender, message["seq"])
        slot = self._slot(message["seq"])
        if slot.digest and message["digest"] != slot.digest:
            return
        slot.commits.add(sender)
        self._check_committed(message["seq"])

    def _check_committed(self, sequence: int) -> None:
        slot = self._slot(sequence)
        if slot.committed or slot.proposal is None or not slot.sent_commit:
            return
        if len(slot.commits) >= self.context.bft_quorum:
            slot.committed = True
            self._trace_phase_end("commit", sequence)
            self._execute_in_order()

    def _execute_in_order(self) -> None:
        while True:
            next_sequence = self.executed_through + 1
            slot = self._slots.get(next_sequence)
            if slot is None or not slot.committed:
                break
            self.executed_through = next_sequence
            self._external_pending = False
            self._decided_log.append((slot.proposal, slot.proposer))
            evidence = None
            if self.context.checker.enabled:
                evidence = {"kind": "bft-votes", "votes": len(slot.commits)}
            self._record_decision(
                Decision(
                    sequence=next_sequence,
                    proposal=slot.proposal,
                    proposer=slot.proposer,
                    decided_at=self.context.now,
                ),
                evidence,
            )
            self.next_sequence = max(self.next_sequence, next_sequence + 1)

    # ------------------------------------------------------------------
    # View change

    def note_pending_work(self) -> None:
        """Tell the engine the node has work waiting to be ordered.

        Backups use this to detect a dead or silent primary: if pending
        work exists and no slot commits within ``progress_timeout``, they
        vote for a view change even though no pre-prepare ever arrived.
        """
        self._external_pending = True
        if not self._timer_active:
            self._arm_progress_timer()

    def _arm_progress_timer(self) -> None:
        timer = self._progress_timer
        if timer is not None:
            timer.cancel()
        self._timer_active = True
        self._progress_timer = self.context.after_cancellable(
            self.progress_timeout, self._on_progress_timeout, self.executed_through
        )

    def _on_progress_timeout(self, watermark: int) -> None:
        if self._stopped:
            # Crashed with the timer live: like the pre-handle code, the
            # armed flag stays set until recover() re-arms.
            return
        self._timer_active = False
        if self.executed_through > watermark:
            if self._has_pending_work():
                self._arm_progress_timer()
            return  # progress was made
        if not self._has_pending_work():
            return
        target = self.view + 1
        self._vote_view_change(target, rebroadcast=self.recovery_mode)
        if self.recovery_mode and self.view < target:
            # The view change found no quorum yet — e.g. the votes were
            # lost to a partition. Keep the timer running so the vote is
            # periodically re-broadcast; without this a heal finds every
            # replica already voted and permanently silent.
            self._arm_progress_timer()

    def _has_pending_work(self) -> bool:
        if self._external_pending:
            return True
        return any(
            seq > self.executed_through and slot.proposal is not None and not slot.committed
            for seq, slot in self._slots.items()
        )

    def _vote_view_change(self, new_view: int, rebroadcast: bool = False) -> None:
        votes = self._view_change_votes.setdefault(new_view, set())
        if self.replica_id in votes and not rebroadcast:
            return
        votes.add(self.replica_id)
        self.context.broadcast("pbft/view_change", {"new_view": new_view})
        self._maybe_enter_view(new_view)

    def _on_view_change(self, sender: str, message: dict) -> None:
        new_view = message["new_view"]
        if new_view <= self.view:
            return
        votes = self._view_change_votes.setdefault(new_view, set())
        votes.add(sender)
        # Join the view change once f+1 replicas demand it.
        f_plus_one = (self.context.n - 1) // 3 + 1
        if len(votes) >= f_plus_one:
            self._vote_view_change(new_view)
        self._maybe_enter_view(new_view)

    def _maybe_enter_view(self, new_view: int) -> None:
        votes = self._view_change_votes.get(new_view, set())
        if new_view <= self.view or len(votes) < self.context.bft_quorum:
            return
        self.view = new_view
        self.next_sequence = self.executed_through + 1
        tracer = self.context.tracer
        if tracer.enabled:
            tracer.event(
                "pbft.view_change", category="consensus", node=self.replica_id,
                view=new_view,
            )
        # Undecided slots above the watermark are abandoned; the node
        # layer still holds their transactions and will re-propose.
        for sequence in list(self._slots):
            if sequence > self.executed_through and not self._slots[sequence].committed:
                del self._slots[sequence]
        if self.is_primary:
            self.context.broadcast("pbft/new_view", {"view": new_view})
        self._arm_progress_timer()

    def _on_new_view(self, sender: str, message: dict) -> None:
        if message["view"] > self.view:
            # Catch up with a view change we missed.
            self._view_change_votes.setdefault(message["view"], set()).add(sender)
            self.view = message["view"]
            self.next_sequence = self.executed_through + 1

    # ------------------------------------------------------------------
    # Crash-recovery sync

    def _on_sync_request(self, sender: str, message: dict) -> None:
        from_seq = message["from_seq"]
        entries = self._decided_log[from_seq:]
        self.context.send(
            sender,
            "pbft/sync_response",
            {"from_seq": from_seq, "entries": entries, "view": self.view},
            size_bytes=256 + 512 * len(entries),
        )

    def _on_sync_response(self, sender: str, message: dict) -> None:
        for offset, (proposal, proposer) in enumerate(message["entries"]):
            sequence = message["from_seq"] + offset
            if sequence != self.executed_through + 1:
                continue  # duplicate response, already replayed
            self.executed_through = sequence
            self.next_sequence = max(self.next_sequence, sequence + 1)
            self._decided_log.append((proposal, proposer))
            evidence = {"kind": "sync"} if self.context.checker.enabled else None
            self._record_decision(
                Decision(
                    sequence=sequence,
                    proposal=proposal,
                    proposer=proposer,
                    decided_at=self.context.now,
                ),
                evidence,
            )
        if message["view"] > self.view:
            self.view = message["view"]
            self.next_sequence = self.executed_through + 1
        # Slots committed locally above the synced watermark may now be
        # executable (e.g. commits that raced the crash).
        self._execute_in_order()
