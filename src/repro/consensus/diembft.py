"""DiemBFT — Diem's consensus engine (chained HotStuff).

Rounds advance through quorum certificates (QCs) or timeouts (the paper's
citation [13], DiemBFT v4). The leader of round ``r`` proposes a block
extending the highest QC it knows; validators vote by sending their vote
to the leader of round ``r + 1``, which assembles a QC from a BFT quorum
of votes and proposes the next block. A block commits under the
DiemBFT v4 two-chain rule: once a certified child with a contiguous
round sits on top of it.

Validators that see no progress broadcast timeout votes; a quorum of
timeouts advances the round, rotating the leader.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.consensus.base import Decision, EngineContext, ReplicaEngine

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import TimerHandle


@dataclasses.dataclass
class _BlockInfo:
    """A proposed block in the (chain-shaped) block tree."""

    round: int
    parent_round: int
    proposal: object
    proposer: str
    certified: bool = False


class DiemBftEngine(ReplicaEngine):
    """One DiemBFT validator."""

    message_kinds = frozenset({
        "diem/proposal",
        "diem/vote",
        "diem/timeout",
        "diem/sync_request",
        "diem/sync_response",
    })

    def __init__(
        self,
        context: EngineContext,
        proposal_factory: typing.Optional[typing.Callable[[int], object]] = None,
        round_interval: float = 0.25,
        round_timeout: float = 5.0,
    ) -> None:
        super().__init__(context)
        self.proposal_factory = proposal_factory
        self.round_interval = round_interval
        self.round_timeout = round_timeout
        self.current_round = 0
        self.highest_qc_round = -1
        self._blocks: typing.Dict[int, _BlockInfo] = {}
        self._votes: typing.Dict[int, typing.Set[str]] = {}
        self._timeout_votes: typing.Dict[int, typing.Set[str]] = {}
        self._committed_through = -1  # highest committed round
        self._commit_sequence = 0
        #: Handle of the pending round timer; rounds advance far more
        #: often than they time out, so re-arming cancels in O(1).
        self._round_timer: typing.Optional["TimerHandle"] = None
        self._voted_rounds: typing.Set[int] = set()
        self._stopped = False
        self._proposal_pending = False
        self._sync_requested: typing.Set[int] = set()
        self._pending_commit_target = -1

    # ------------------------------------------------------------------
    # Roles and lifecycle

    def leader_for(self, round_number: int) -> str:
        """The rotating leader of a round."""
        return self.context.peers[round_number % self.context.n]

    @property
    def leader_id(self) -> str:
        """The pacemaker leader of the current round."""
        return self.leader_for(self.current_round)

    @property
    def is_leader(self) -> bool:
        """Whether this validator leads the current round."""
        return self.replica_id == self.leader_id and not self._stopped

    def start(self) -> None:
        """Kick off round 0."""
        self._trace_round_begin(0)
        self._arm_round_timer()
        if self.is_leader:
            self._schedule_proposal()

    def _trace_round_begin(self, round_number: int) -> None:
        tracer = self.context.tracer
        if tracer.enabled:
            tracer.begin(
                ("diem.round", self.replica_id, round_number),
                "diem.round", category="consensus", node=self.replica_id,
                round=round_number, leader=self.leader_for(round_number),
            )

    def stop(self) -> None:
        """Crash this validator."""
        self._stopped = True

    def recover(self) -> None:
        """Restart after a crash."""
        self._stopped = False
        self._arm_round_timer()

    # ------------------------------------------------------------------
    # Proposing

    def _schedule_proposal(self) -> None:
        if self._proposal_pending:
            return
        self._proposal_pending = True
        self.context.after(self.round_interval, self._propose, self.current_round)

    def _propose(self, round_number: int) -> None:
        self._proposal_pending = False
        if self._stopped or round_number != self.current_round or not self.is_leader:
            return
        if round_number in self._blocks:
            return  # already proposed for this round
        proposal = self.proposal_factory(round_number) if self.proposal_factory else None
        info = _BlockInfo(
            round=round_number,
            parent_round=self.highest_qc_round,
            proposal=proposal,
            proposer=self.replica_id,
        )
        self._blocks[round_number] = info
        self.context.broadcast(
            "diem/proposal",
            {
                "round": round_number,
                "parent_round": info.parent_round,
                "qc_round": self.highest_qc_round,
                "proposal": proposal,
            },
            size_bytes=getattr(proposal, "size_bytes", 512),
        )
        self._vote(round_number)

    # ------------------------------------------------------------------
    # Message handling

    def on_message(self, kind: str, sender: str, payload: object) -> None:
        if self._stopped:
            return
        message = typing.cast(dict, payload)
        if kind == "diem/proposal":
            self._on_proposal(sender, message)
        elif kind == "diem/vote":
            self._on_vote(sender, message)
        elif kind == "diem/timeout":
            self._on_timeout_vote(sender, message)
        elif kind == "diem/sync_request":
            self._on_sync_request(sender, message)
        elif kind == "diem/sync_response":
            self._on_sync_response(sender, message)

    def _on_proposal(self, sender: str, message: dict) -> None:
        round_number = message["round"]
        if sender != self.leader_for(round_number):
            return
        self._learn_qc(message["qc_round"])
        if message["parent_round"] < self._committed_through:
            # Voting safety: never vote for a proposal that extends a
            # block below the committed prefix (a leader with a stale QC
            # — e.g. freshly recovered — must not fork committed
            # history). The round times out and rotates past it.
            return
        if round_number < self.current_round or round_number in self._blocks:
            return
        self._blocks[round_number] = _BlockInfo(
            round=round_number,
            parent_round=message["parent_round"],
            proposal=message["proposal"],
            proposer=sender,
        )
        if round_number > self.current_round:
            self._enter_round(round_number)  # round sync via proposal
        self._vote(round_number)

    def _vote(self, round_number: int) -> None:
        if round_number in self._voted_rounds:
            return
        self._voted_rounds.add(round_number)
        next_leader = self.leader_for(round_number + 1)
        if next_leader == self.replica_id:
            self._collect_vote(self.replica_id, round_number)
        else:
            self.context.send(next_leader, "diem/vote", {"round": round_number})

    def _on_vote(self, sender: str, message: dict) -> None:
        self._collect_vote(sender, message["round"])

    def _collect_vote(self, voter: str, round_number: int) -> None:
        votes = self._votes.setdefault(round_number, set())
        votes.add(voter)
        if len(votes) >= self.context.bft_quorum:
            checker = self.context.checker
            if checker.enabled:
                checker.on_qc(
                    type(self).__name__, round_number, len(votes), self.context.n
                )
            self._learn_qc(round_number)
            if round_number + 1 > self.current_round:
                self._enter_round(round_number + 1)
            if self.is_leader:
                self._schedule_proposal()

    def _learn_qc(self, qc_round: int) -> None:
        if qc_round < 0 or qc_round <= self.highest_qc_round:
            self._try_commit(qc_round)
            return
        self.highest_qc_round = qc_round
        if qc_round in self._blocks:
            self._blocks[qc_round].certified = True
        self._try_commit(qc_round)

    def _try_commit(self, qc_round: int) -> None:
        """Two-chain commit (DiemBFT v4): a block commits once a certified
        child with a *contiguous* round sits on top of it."""
        if qc_round < 1:
            return
        tip = self._blocks.get(qc_round)
        if tip is None:
            return
        tip.certified = True
        if tip.parent_round != qc_round - 1:
            return  # a round was skipped between parent and child
        if tip.parent_round not in self._blocks:
            return
        self._commit_through(tip.parent_round)

    def _commit_through(self, round_number: int) -> None:
        # Commit every uncommitted ancestor along the parent chain, oldest
        # first, so decisions come out in order. A hole in the chain
        # (blocks missed while crashed) triggers state sync instead of
        # skipping — skipping would diverge this replica's sequence.
        chain = []
        cursor = round_number
        while cursor > self._committed_through:
            info = self._blocks.get(cursor)
            if info is None:
                self._pending_commit_target = max(self._pending_commit_target, round_number)
                self._request_sync(cursor)
                return
            chain.append(info)
            cursor = info.parent_round
        for info in reversed(chain):
            self._committed_through = info.round
            evidence = None
            if self.context.checker.enabled:
                evidence = {"kind": "qc", "round": info.round}
            self._record_decision(
                Decision(
                    sequence=self._commit_sequence,
                    proposal=info.proposal,
                    proposer=info.proposer,
                    decided_at=self.context.now,
                ),
                evidence,
            )
            self._commit_sequence += 1

    # ------------------------------------------------------------------
    # State sync

    def _request_sync(self, missing_round: int) -> None:
        if missing_round in self._sync_requested:
            return
        self._sync_requested.add(missing_round)
        self.context.broadcast("diem/sync_request", {"round": missing_round})

    def _on_sync_request(self, sender: str, message: dict) -> None:
        info = self._blocks.get(message["round"])
        if info is None:
            return
        self.context.send(
            sender,
            "diem/sync_response",
            {
                "round": info.round,
                "parent_round": info.parent_round,
                "proposal": info.proposal,
                "proposer": info.proposer,
            },
            size_bytes=getattr(info.proposal, "size_bytes", 512),
        )

    def _on_sync_response(self, sender: str, message: dict) -> None:
        round_number = message["round"]
        if round_number not in self._blocks:
            self._blocks[round_number] = _BlockInfo(
                round=round_number,
                parent_round=message["parent_round"],
                proposal=message["proposal"],
                proposer=message["proposer"],
                certified=True,  # synced blocks sit on the committed chain
            )
        self._sync_requested.discard(round_number)
        if self._pending_commit_target > self._committed_through:
            self._commit_through(self._pending_commit_target)

    # ------------------------------------------------------------------
    # Pacemaker

    def _enter_round(self, round_number: int) -> None:
        if round_number <= self.current_round:
            return
        tracer = self.context.tracer
        if tracer.enabled:
            # One span per round this replica occupied; a round that was
            # never entered here (skipped during sync) has no span.
            tracer.end(("diem.round", self.replica_id, self.current_round))
        self.current_round = round_number
        self._trace_round_begin(round_number)
        self._arm_round_timer()
        if self.is_leader:
            self._schedule_proposal()

    def _arm_round_timer(self) -> None:
        timer = self._round_timer
        if timer is not None:
            timer.cancel()
        self._round_timer = self.context.after_cancellable(
            self.round_timeout, self._on_round_timeout
        )

    def _on_round_timeout(self) -> None:
        if self._stopped:
            return
        round_number = self.current_round
        tracer = self.context.tracer
        if tracer.enabled:
            tracer.event(
                "diem.round_timeout", category="consensus",
                node=self.replica_id, round=round_number,
            )
        self._timeout_votes.setdefault(round_number, set()).add(self.replica_id)
        self.context.broadcast("diem/timeout", {"round": round_number})
        self._check_timeout_quorum(round_number)
        self._arm_round_timer()

    def _on_timeout_vote(self, sender: str, message: dict) -> None:
        round_number = message["round"]
        self._timeout_votes.setdefault(round_number, set()).add(sender)
        self._check_timeout_quorum(round_number)

    def _check_timeout_quorum(self, round_number: int) -> None:
        votes = self._timeout_votes.get(round_number, set())
        if len(votes) >= self.context.bft_quorum and round_number >= self.current_round:
            self._enter_round(round_number + 1)
