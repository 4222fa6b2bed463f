"""Istanbul BFT — Quorum's consensus engine.

IBFT (the paper's citation [44], Moniz 2020) decides one height at a
time. Each height runs in rounds: the proposer of round ``r`` for height
``h`` is ``validators[(h + r) mod n]``; a round goes pre-prepare →
prepare → commit with BFT quorums, and a stalled round is abandoned
through round-change votes, rotating the proposer.

Quorum paces proposals with ``istanbul.blockperiod``: the node layer
calls :meth:`IbftEngine.maybe_propose` on that timer, and the proposer
inserts whatever block the node's transaction pool yields — possibly an
empty block, which is exactly what the paper observes during the
blockperiod <= 2 s liveness failure (Section 5.5).
"""

from __future__ import annotations

import typing

from repro.consensus.base import EngineContext, ReplicaEngine, VoteTally
from repro.consensus.pbft import proposal_digest

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import TimerHandle


def _in_round(handler: typing.Callable[..., None]) -> typing.Callable[..., None]:
    """Dispatch step for the in-round kinds: ``handler`` sees only
    messages of the current (height, round). IBFT is height-sequential,
    so a message from a later height means this validator missed
    decisions (a crash-recovery race) and asks the sender for them;
    stale and future rounds are dropped."""

    def checked(engine: "IbftEngine", sender: str, message: dict) -> None:
        height = message["height"]
        if height == engine.height:
            if message["round"] == engine.round:
                handler(engine, sender, message)
        elif height > engine.height:
            engine._request_sync(sender)

    return checked


class IbftEngine(ReplicaEngine):
    """One IBFT validator."""

    def __init__(
        self,
        context: EngineContext,
        proposal_factory: typing.Optional[typing.Callable[[int], object]] = None,
        round_timeout: float = 10.0,
    ) -> None:
        super().__init__(context)
        self.proposal_factory = proposal_factory
        self.round_timeout = round_timeout
        self.height = 0
        self.round = 0
        self.proposal: object = None
        self.digest = ""
        self.proposer: str = ""
        self._prepares: typing.Set[str] = set()
        self._commits: typing.Set[str] = set()
        self._sent_prepare = False
        self._sent_commit = False
        #: Round-change votes per (height, round).
        self._round_changes = VoteTally(context, self._broadcast_round_change, self._enter_round)
        #: Handle of the pending round timer; re-arming cancels the
        #: previous one instead of leaving a stale no-op in the queue.
        self._round_timer: typing.Optional["TimerHandle"] = None
        self._sync_requested_through = -1
        self._last_sync_request_at: typing.Optional[float] = None

    # ------------------------------------------------------------------
    # Roles

    def proposer_for(self, height: int, round_number: int) -> str:
        """The rotating proposer for a (height, round) pair."""
        return self.context.peers[(height + round_number) % self.context.n]

    @property
    def leader_id(self) -> str:
        """The proposer of the current (height, round)."""
        return self.proposer_for(self.height, self.round)

    @property
    def is_proposer(self) -> bool:
        """Whether this validator proposes the current round."""
        return self.replica_id == self.leader_id and not self._stopped

    def recover(self) -> None:
        """Restart after a crash: re-arm the round timer and catch up.

        IBFT is height-sequential, so a restarted validator first pulls
        the heights the group decided while it was down; until those
        arrive it simply drops in-round traffic for heights it has not
        reached (and re-requests sync when it sees one).
        """
        super().recover()
        self._arm_round_timer()
        self._sync_requested_through = self.height
        self._last_sync_request_at = self.context.now
        self.context.broadcast("ibft/sync_request", {"from_height": self.height})

    def start(self) -> None:
        """Arm the first round timer."""
        self._arm_round_timer()

    # ------------------------------------------------------------------
    # Proposing

    def maybe_propose(self) -> bool:
        """Blockperiod tick: propose for the current height if proposer.

        Returns whether a proposal was broadcast.
        """
        if self._stopped or not self.is_proposer or self.proposal is not None:
            return False
        if self.proposal_factory is None:
            return False
        proposal = self.proposal_factory(self.height)
        if proposal is None:
            return False
        self.submit_proposal(proposal)
        return True

    def submit_proposal(self, proposal: object) -> None:
        """Broadcast pre-prepare for the current (height, round)."""
        if not self.is_proposer or self.proposal is not None:
            return
        self._accept_proposal(proposal, self.replica_id)
        self.context.broadcast(
            "ibft/pre_prepare",
            {
                "height": self.height,
                "round": self.round,
                "proposal": proposal,
                "digest": self.digest,
            },
            size_bytes=getattr(proposal, "size_bytes", 512),
        )
        self._send_prepare()

    def _accept_proposal(self, proposal: object, proposer: str) -> None:
        self.proposal = proposal
        self.digest = proposal_digest(proposal)
        self.proposer = proposer
        tracer = self.context.tracer
        if tracer.enabled:
            # Pre-prepare -> commit (or round change) for this height/round.
            tracer.begin(
                ("ibft", self.replica_id, self.height, self.round),
                "ibft.round", category="consensus", node=self.replica_id,
                height=self.height, round=self.round, proposer=proposer,
            )

    # ------------------------------------------------------------------
    # Message handling

    def _on_pre_prepare(self, sender: str, message: dict) -> None:
        if sender != self.proposer_for(self.height, self.round):
            return
        if self.proposal is not None:
            return
        self._accept_proposal(message["proposal"], sender)
        self._send_prepare()

    def _send_prepare(self) -> None:
        if self._sent_prepare:
            return
        self._sent_prepare = True
        self._prepares.add(self.replica_id)
        self.context.broadcast(
            "ibft/prepare",
            {"height": self.height, "round": self.round, "digest": self.digest},
        )
        self._check_prepared()

    def _on_prepare(self, sender: str, message: dict) -> None:
        if self.digest and message["digest"] != self.digest:
            return
        self._prepares.add(sender)
        self._check_prepared()

    def _check_prepared(self) -> None:
        if self._sent_commit or self.proposal is None:
            return
        if len(self._prepares) >= self.context.bft_quorum:
            self._sent_commit = True
            self._commits.add(self.replica_id)
            self.context.broadcast(
                "ibft/commit",
                {"height": self.height, "round": self.round, "digest": self.digest},
            )
            self._check_committed()

    def _on_commit(self, sender: str, message: dict) -> None:
        if self.digest and message["digest"] != self.digest:
            return
        self._commits.add(sender)
        self._check_committed()

    def _check_committed(self) -> None:
        if self.proposal is None or not self._sent_commit:
            return
        if len(self._commits) < self.context.bft_quorum:
            return
        tracer = self.context.tracer
        if tracer.enabled:
            tracer.end(("ibft", self.replica_id, self.height, self.round), decided=True)
        # Captured before _advance resets the round's commit set.
        evidence = None
        if self.context.checker.enabled:
            evidence = {"kind": "bft-votes", "votes": len(self._commits)}
        self._decide(self.proposal, self.proposer, evidence)

    def _advance(self, height: int) -> None:
        """Enter ``height`` at round 0 (the decided log holds the heights
        below it)."""
        self.height = height
        self.round = 0
        self._reset_round_state()
        self._arm_round_timer()

    def _reset_round_state(self) -> None:
        self.proposal = None
        self.digest = ""
        self.proposer = ""
        self._prepares = set()
        self._commits = set()
        self._sent_prepare = False
        self._sent_commit = False

    # ------------------------------------------------------------------
    # Round change

    def _arm_round_timer(self) -> None:
        timer = self._round_timer
        if timer is not None:
            timer.cancel()
        # Exponential backoff per round, as go-ethereum's IBFT does.
        delay = self.round_timeout * (2 ** min(self.round, 6))
        self._round_timer = self.context.after_cancellable(delay, self._on_round_timeout)

    def _on_round_timeout(self) -> None:
        if self._stopped:
            return
        target = self.round + 1
        self._round_changes.vote((self.height, target), rebroadcast=self.recovery_mode)
        if self.recovery_mode and self.round < target:
            # The round change found no quorum yet — e.g. the votes were
            # lost to a partition. Keep the timer running so the vote is
            # periodically re-broadcast; without this a heal finds every
            # validator already voted and permanently silent.
            self._arm_round_timer()

    def _broadcast_round_change(self, key: typing.Tuple[int, int]) -> None:
        height, new_round = key
        self.context.broadcast("ibft/round_change", {"height": height, "round": new_round})

    def _on_round_change(self, sender: str, message: dict) -> None:
        height, new_round = message["height"], message["round"]
        if height == self.height and new_round > self.round:
            self._round_changes.on_vote((height, new_round), sender)

    def _enter_round(self, key: typing.Tuple[int, int]) -> None:
        height, new_round = key
        tracer = self.context.tracer
        if tracer.enabled:
            tracer.end(("ibft", self.replica_id, self.height, self.round), decided=False)
            tracer.event(
                "ibft.round_change", category="consensus", node=self.replica_id,
                height=height, round=new_round,
            )
        self.round = new_round
        self._reset_round_state()
        self._arm_round_timer()

    # ------------------------------------------------------------------
    # Crash-recovery sync

    def _request_sync(self, sender: str) -> None:
        now = self.context.now
        if self.height <= self._sync_requested_through:
            # A request for this height is already outstanding. In
            # recovery mode, retry after a round-timeout of silence: the
            # first request can race ahead of any peer actually deciding
            # this height (restart just as the group stalls on us), and
            # responders with nothing to offer stay silent.
            if not self.recovery_mode:
                return
            if self._last_sync_request_at is not None and (
                now - self._last_sync_request_at < self.round_timeout
            ):
                return
        self._sync_requested_through = self.height
        self._last_sync_request_at = now
        self.context.send(sender, "ibft/sync_request", {"from_height": self.height})

    def _on_sync_request(self, sender: str, message: dict) -> None:
        from_height = message["from_height"]
        entries = self.decided_log[from_height:]
        if not entries:
            return
        self.context.send(
            sender,
            "ibft/sync_response",
            {"from_height": from_height, "entries": entries},
            size_bytes=256 + 512 * len(entries),
        )

    def _on_sync_response(self, sender: str, message: dict) -> None:
        self._replay(message["from_height"], message["entries"])

    handlers = {
        "ibft/pre_prepare": _in_round(_on_pre_prepare),
        "ibft/prepare": _in_round(_on_prepare),
        "ibft/commit": _in_round(_on_commit),
        "ibft/round_change": _on_round_change,
        "ibft/sync_request": _on_sync_request,
        "ibft/sync_response": _on_sync_response,
    }
    message_kinds = frozenset(handlers)
