"""Raft log replication — Fabric's ordering service consensus.

A faithful (crash-fault-tolerant) Raft: randomized election timeouts,
RequestVote/AppendEntries RPCs, per-follower nextIndex backtracking and
majority commit. Decisions are emitted on *every* replica as its commit
index advances, which is what the Fabric model needs: each orderer
delivers committed blocks independently.

Reference: Ongaro & Ousterhout, "In Search of an Understandable Consensus
Algorithm" (USENIX ATC '14) — the paper's citation [46].
"""

from __future__ import annotations

import dataclasses
import typing

from repro.consensus.base import EngineContext, ReplicaEngine

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import TimerHandle


@dataclasses.dataclass(frozen=True)
class LogEntry:
    """One slot of the replicated log."""

    term: int
    proposal: object
    proposer: str


FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


class RaftEngine(ReplicaEngine):
    """One Raft replica."""

    def __init__(
        self,
        context: EngineContext,
        heartbeat_interval: float = 0.05,
        election_timeout: typing.Tuple[float, float] = (0.15, 0.30),
    ) -> None:
        super().__init__(context)
        self.heartbeat_interval = heartbeat_interval
        self.election_timeout = election_timeout
        self.role = FOLLOWER
        self.current_term = 0
        self.voted_for: typing.Optional[str] = None
        self.log: typing.List[LogEntry] = []
        self.commit_index = -1  # highest committed log index
        self.leader_id: typing.Optional[str] = None
        self._votes: typing.Set[str] = set()
        self._next_index: typing.Dict[str, int] = {}
        self._match_index: typing.Dict[str, int] = {}
        #: Handle of the pending election timer. Raft resets this on
        #: every AppendEntries, so cancellation (not generation
        #: checking) is what keeps the queue free of dead timers.
        self._election_timer: typing.Optional["TimerHandle"] = None

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Arm the first election timer."""
        self._reset_election_timer()

    def recover(self) -> None:
        """Restart after a crash (volatile state reset, log retained)."""
        super().recover()
        self.role = FOLLOWER
        self.leader_id = None
        self._reset_election_timer()

    @property
    def is_leader(self) -> bool:
        """Whether this replica currently leads."""
        return self.role == LEADER and not self._stopped

    # ------------------------------------------------------------------
    # Client-facing

    def submit_proposal(self, proposal: object) -> None:
        """Append a proposal to the log (leader only; others drop).

        The hosting node is expected to route submissions to the leader;
        a non-leader silently ignores, as a real orderer relays instead.
        """
        if not self.is_leader:
            return
        self.log.append(LogEntry(self.current_term, proposal, self.replica_id))
        tracer = self.context.tracer
        if tracer.enabled:
            # Append -> majority-commit span, closed in _commit_through.
            tracer.begin(
                ("raft", self.replica_id, len(self.log) - 1),
                "raft.replicate", category="consensus", node=self.replica_id,
                index=len(self.log) - 1, term=self.current_term,
            )
        # The leader counts itself toward the replication majority.
        self._match_index[self.replica_id] = len(self.log) - 1
        self._replicate_all()

    # ------------------------------------------------------------------
    # Timers

    def _reset_election_timer(self) -> None:
        timer = self._election_timer
        if timer is not None:
            timer.cancel()
        low, high = self.election_timeout
        delay = self.context.rng.uniform(low, high)
        self._election_timer = self.context.after_cancellable(
            delay, self._on_election_timeout
        )

    def _on_election_timeout(self) -> None:
        if self._stopped or self.role == LEADER:
            return
        self._start_election()

    def _start_election(self) -> None:
        tracer = self.context.tracer
        if tracer.enabled:
            tracer.event(
                "raft.election_started", category="consensus",
                node=self.replica_id, term=self.current_term + 1,
            )
        self.role = CANDIDATE
        self.current_term += 1
        self.voted_for = self.replica_id
        self._votes = {self.replica_id}
        self.leader_id = None
        last_index = len(self.log) - 1
        last_term = self.log[last_index].term if last_index >= 0 else 0
        self.context.broadcast(
            "raft/request_vote",
            {"term": self.current_term, "last_index": last_index, "last_term": last_term},
        )
        self._reset_election_timer()
        self._maybe_win()  # single-replica cluster wins instantly

    def _heartbeat_loop(self) -> None:
        if self._stopped or self.role != LEADER:
            return
        self._replicate_all()
        self.context.after(self.heartbeat_interval, self._heartbeat_loop)

    # ------------------------------------------------------------------
    # Message handling

    def on_message(self, kind: str, sender: str, payload: typing.Any) -> None:
        # Any RPC from a newer term demotes this replica before it is
        # handled.
        if not self._stopped:
            term = payload.get("term", 0)
            if term > self.current_term:
                self._step_down(term)
        super().on_message(kind, sender, payload)

    def _step_down(self, term: int) -> None:
        self.current_term = term
        self.role = FOLLOWER
        self.voted_for = None
        self._votes = set()
        self._reset_election_timer()

    def _on_request_vote(self, sender: str, message: dict) -> None:
        grant = False
        if message["term"] >= self.current_term and self.voted_for in (None, sender):
            my_last_index = len(self.log) - 1
            my_last_term = self.log[my_last_index].term if my_last_index >= 0 else 0
            up_to_date = (message["last_term"], message["last_index"]) >= (my_last_term, my_last_index)
            if up_to_date:
                grant = True
                self.voted_for = sender
                self._reset_election_timer()
        self.context.send(sender, "raft/vote", {"term": self.current_term, "granted": grant})

    def _on_vote(self, sender: str, message: dict) -> None:
        if self.role != CANDIDATE or message["term"] != self.current_term:
            return
        if message["granted"]:
            self._votes.add(sender)
            self._maybe_win()

    def _maybe_win(self) -> None:
        if self.role != CANDIDATE:
            return
        if len(self._votes) >= self.context.crash_quorum:
            self.role = LEADER
            self.leader_id = self.replica_id
            tracer = self.context.tracer
            if tracer.enabled:
                tracer.event(
                    "raft.leader_elected", category="consensus",
                    node=self.replica_id, term=self.current_term,
                )
            next_index = len(self.log)
            self._next_index = {peer: next_index for peer in self.context.peers}
            self._match_index = {peer: -1 for peer in self.context.peers}
            self._match_index[self.replica_id] = len(self.log) - 1
            self._heartbeat_loop()

    def _replicate_all(self) -> None:
        for peer in self.context.peers:
            if peer != self.replica_id:
                self._replicate_to(peer)
        self._advance_commit()

    def _replicate_to(self, peer: str) -> None:
        next_index = self._next_index.get(peer, len(self.log))
        prev_index = next_index - 1
        prev_term = self.log[prev_index].term if prev_index >= 0 else 0
        entries = self.log[next_index:]
        size = 128 + sum(getattr(e.proposal, "size_bytes", 256) for e in entries)
        self.context.send(
            peer,
            "raft/append",
            {
                "term": self.current_term,
                "prev_index": prev_index,
                "prev_term": prev_term,
                "entries": entries,
                "leader_commit": self.commit_index,
            },
            size_bytes=size,
        )

    def _on_append(self, sender: str, message: dict) -> None:
        if message["term"] < self.current_term:
            self.context.send(
                sender,
                "raft/append_reply",
                {"term": self.current_term, "success": False, "match_index": -1},
            )
            return
        # Valid leader for this term.
        self.role = FOLLOWER
        self.leader_id = sender
        self._reset_election_timer()
        prev_index = message["prev_index"]
        prev_term = message["prev_term"]
        consistent = prev_index == -1 or (
            prev_index < len(self.log) and self.log[prev_index].term == prev_term
        )
        if not consistent:
            self.context.send(
                sender,
                "raft/append_reply",
                {"term": self.current_term, "success": False, "match_index": -1},
            )
            return
        entries: typing.List[LogEntry] = message["entries"]
        insert_at = prev_index + 1
        for offset, entry in enumerate(entries):
            index = insert_at + offset
            if index < len(self.log):
                if self.log[index].term != entry.term:
                    del self.log[index:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
        match_index = prev_index + len(entries)
        leader_commit = message["leader_commit"]
        if leader_commit > self.commit_index:
            self._commit_through(min(leader_commit, len(self.log) - 1))
        self.context.send(
            sender,
            "raft/append_reply",
            {"term": self.current_term, "success": True, "match_index": match_index},
        )

    def _on_append_reply(self, sender: str, message: dict) -> None:
        if self.role != LEADER or message["term"] != self.current_term:
            return
        if message["success"]:
            match = message["match_index"]
            self._match_index[sender] = max(self._match_index.get(sender, -1), match)
            self._next_index[sender] = self._match_index[sender] + 1
            self._advance_commit()
        else:
            self._next_index[sender] = max(0, self._next_index.get(sender, 1) - 1)
            self._replicate_to(sender)

    handlers = {
        "raft/request_vote": _on_request_vote,
        "raft/vote": _on_vote,
        "raft/append": _on_append,
        "raft/append_reply": _on_append_reply,
    }
    message_kinds = frozenset(handlers)

    def _advance_commit(self) -> None:
        if self.role != LEADER:
            return
        majority = self.context.crash_quorum
        for index in range(len(self.log) - 1, self.commit_index, -1):
            if self.log[index].term != self.current_term:
                break  # Raft only commits current-term entries by counting
            replicated = sum(1 for match in self._match_index.values() if match >= index)
            if replicated >= majority:
                self._commit_through(index)
                break

    def _commit_through(self, index: int) -> None:
        tracer = self.context.tracer
        checker = self.context.checker
        while self.commit_index < index:
            self.commit_index += 1
            entry = self.log[self.commit_index]
            if tracer.enabled:
                # Only the appending leader opened this key; on followers
                # (and post-failover leaders) this is a no-op.
                tracer.end(("raft", self.replica_id, self.commit_index))
            evidence = None
            if checker.enabled:
                if self.role == LEADER:
                    # The replication count that justified the advance
                    # (matches >= this index; monotone in the index).
                    votes = sum(
                        1 for match in self._match_index.values()
                        if match >= self.commit_index
                    )
                    evidence = {"kind": "crash-votes", "votes": votes}
                else:
                    # Followers commit on the leader's say-so, which the
                    # leader only sends after its own quorum-backed commit.
                    evidence = {"kind": "follow"}
            self._record_decision(self.commit_index, entry.proposal, entry.proposer, evidence)
