"""Shared machinery for consensus engine replicas.

Every engine is instantiated once per replica and talks to its peers
through an :class:`EngineContext`, which hides the node plumbing: sending
and broadcasting protocol messages, timers, RNG, and the upcall that
delivers a :class:`Decision` to the hosting node. Engines agree on opaque
*proposals* (the node layer passes block-shaped payloads) identified by a
monotonically increasing sequence number. The quorum arithmetic the
voting engines and the quorum oracle share lives here too, and so does
the chassis every engine is built on: one handler table per engine
(:class:`ReplicaEngine`), one leader-change vote (:class:`VoteTally`)
and one decided log with its sync replay.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.net.network import Message
from repro.trace.tracer import Instruments

#: Attribute names of the ``decision`` trace event.
_DECISION_KEYS = ("engine", "seq", "proposer")

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import random

    from repro.net.network import Network
    from repro.sim.kernel import Simulator, TimerHandle


def quorum_size(n: int, kind: str = "bft") -> int:
    """Votes required for consensus over ``n`` replicas.

    ``bft`` gives the PBFT/IBFT/DiemBFT quorum — ceil((n+f+1)/2), which
    equals the textbook 2f+1 when n = 3f+1; ``crash`` gives Raft's
    simple majority.
    """
    if n < 1:
        raise ValueError(f"need at least one replica, got {n}")
    if kind == "bft":
        f = (n - 1) // 3
        # ceil((n + f + 1) / 2): any two quorums intersect in >= f+1
        # replicas, i.e. at least one correct one, for any n (not just
        # n = 3f + 1).
        return (n + f + 2) // 2
    if kind == "crash":
        return n // 2 + 1
    raise ValueError(f"unknown quorum kind {kind!r}")


def max_faulty(n: int, kind: str = "bft") -> int:
    """Maximum tolerated faulty replicas for ``n`` replicas."""
    if n < 1:
        raise ValueError(f"need at least one replica, got {n}")
    if kind == "bft":
        return (n - 1) // 3
    if kind == "crash":
        return (n - 1) // 2
    raise ValueError(f"unknown quorum kind {kind!r}")


@dataclasses.dataclass(frozen=True)
class Decision:
    """One agreed slot in the total order."""

    sequence: int
    proposal: object
    proposer: str
    decided_at: float


class EngineContext:
    """The interface an engine replica uses to reach the outside world.

    The hosting system builds one context per engine replica: protocol
    messages go out on ``network`` from ``replica_id``, decided slots go
    to ``decide_fn`` (the replica's commit path) and timers run on
    ``sim``.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        replica_id: str,
        peers: typing.Sequence[str],
        decide_fn: typing.Callable[[Decision], None],
        rng: "random.Random",
    ) -> None:
        self.sim = sim
        self.network = network
        self.replica_id = replica_id
        self.peers = list(peers)  # includes replica_id, stable order
        self._decide_fn = decide_fn
        self.rng = rng
        if replica_id not in self.peers:
            raise ValueError(f"replica {replica_id!r} missing from peer list {self.peers}")
        #: Votes a decision needs (see :func:`quorum_size`), fixed with
        #: the group: BFT engines read ``bft_quorum``, Raft ``crash_quorum``.
        self.bft_quorum = quorum_size(len(self.peers), "bft")
        self.crash_quorum = quorum_size(len(self.peers), "crash")
        #: Votes that include at least one correct replica: a BFT replica
        #: joins a leader change once this many peers demand it.
        self.f_plus_one = max_faulty(len(self.peers), "bft") + 1

    @property
    def n(self) -> int:
        """Replica-group size."""
        return len(self.peers)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    @property
    def tracer(self):
        """The hosting simulator's tracer (NOOP unless one is installed)."""
        return self.sim.tracer

    @property
    def checker(self):
        """The hosting simulator's invariant checker (NOOP by default)."""
        return self.sim.checker

    def index_of(self, replica_id: str) -> int:
        """Stable index of a replica in the group."""
        return self.peers.index(replica_id)

    def send(self, dst: str, kind: str, payload: object, size_bytes: int = 256) -> None:
        """Send a protocol message to one peer."""
        self.network.send(Message(self.replica_id, dst, kind, payload, size_bytes))

    def broadcast(self, kind: str, payload: object, size_bytes: int = 256) -> None:
        """Send a protocol message to every *other* peer, over the
        network's shared-wire-record fan-out."""
        self.network.broadcast(self.replica_id, self.peers, kind, payload, size_bytes)

    def decide(self, decision: Decision) -> None:
        """Deliver a decided slot to the hosting node."""
        self._decide_fn(decision)

    def after(
        self, delay: float, callback: typing.Callable[..., None], *args: object
    ) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        self.sim.schedule(delay, callback, *args)

    def after_cancellable(
        self, delay: float, callback: typing.Callable[..., None], *args: object
    ) -> "TimerHandle":
        """Like :meth:`after`, but returns a cancellable
        :class:`~repro.sim.kernel.TimerHandle` — engines use this for
        progress timers that are re-armed far more often than they fire."""
        return self.sim.schedule_cancellable(delay, callback, *args)


class VoteTally:
    """One leader-change vote (IBFT's round change, PBFT's view change,
    DiemBFT's timeout), counted per target.

    A replica casts its own vote for a target when its timer runs out
    (:meth:`vote`). A joining tally also casts it once f+1 peers have
    voted for the target, since at least one of them is correct
    (:meth:`on_vote`). At a BFT quorum the replica enters the target.
    The engine supplies the two actions: ``cast(key)`` broadcasts its
    vote and ``enter(key)`` moves it to the new round or view; it drops
    votes for stale targets before they reach the tally.
    """

    __slots__ = ("_votes", "_voter", "join_at", "enter_at", "_cast", "_enter")

    def __init__(
        self,
        context: EngineContext,
        cast: typing.Callable[[typing.Hashable], None],
        enter: typing.Callable[[typing.Hashable], None],
        joins: bool = True,
    ) -> None:
        self._votes: typing.Dict[typing.Hashable, typing.Set[str]] = {}
        self._voter = context.replica_id
        self.join_at = context.f_plus_one if joins else None
        self.enter_at = context.bft_quorum
        self._cast = cast
        self._enter = enter

    def add(self, key: typing.Hashable, voter: str) -> int:
        """Count ``voter`` for ``key``; return the votes ``key`` has."""
        votes = self._votes.get(key)
        if votes is None:
            votes = self._votes[key] = set()
        votes.add(voter)
        return len(votes)

    def vote(self, key: typing.Hashable, rebroadcast: bool = False) -> None:
        """Cast this replica's vote for ``key``; a vote already cast is
        cast again only with ``rebroadcast``."""
        if not rebroadcast and self._voter in self._votes.get(key, ()):
            return
        votes = self.add(key, self._voter)
        self._cast(key)
        if votes >= self.enter_at:
            self._enter(key)

    def on_vote(self, key: typing.Hashable, voter: str) -> None:
        """Count a peer's vote: join at f+1, enter at a quorum."""
        votes = self.add(key, voter)
        if (
            self.join_at is not None
            and votes >= self.join_at
            and self._voter not in self._votes[key]
        ):
            votes = self.add(key, self._voter)
            self._cast(key)
        if votes >= self.enter_at:
            self._enter(key)


class ReplicaEngine:
    """Base class for consensus engine replicas.

    Subclasses implement :meth:`start` and the protocol itself, and list
    their message handlers in :attr:`handlers`; the hosting node calls
    :meth:`submit_proposal` when it has a block ready (leader-based
    engines queue it until this replica leads).
    """

    #: Message kind -> handler ``(engine, sender, payload)``. Each engine
    #: declares its table next to its handlers, and ``message_kinds`` is
    #: ``frozenset(handlers)``.
    handlers: typing.Dict[str, typing.Callable[..., None]] = {}

    #: Message kinds handled by this engine: the hosting node hands
    #: exactly these to :meth:`on_message` (one set lookup per delivery).
    message_kinds: typing.FrozenSet[str] = frozenset()

    def __init__(self, context: EngineContext) -> None:
        self.context = context
        self._stopped = False
        #: Arms the engine's partition-recovery aids (vote re-broadcast,
        #: gap sync, non-resetting progress timers). Off by default:
        #: those aids change message and timer schedules, and fault-free
        #: benchmark runs must stay byte-identical to a build without
        #: the faults subsystem. The fault injector arms it at install.
        self.recovery_mode = False
        #: Decided ``(proposal, proposer)`` pairs in sequence order, for
        #: engines that decide through :meth:`_decide`; its length is the
        #: next sequence. Crashes keep it, and it answers peers' sync
        #: requests.
        self.decided_log: typing.List[typing.Tuple[object, str]] = []
        self._trace = Instruments(
            "consensus",
            decisions=("counter", "consensus.decisions", "", context.replica_id),
        )

    def enable_recovery(self) -> None:
        """Arm the partition/crash recovery aids (fault runs only)."""
        self.recovery_mode = True

    @property
    def replica_id(self) -> str:
        """This replica's id."""
        return self.context.replica_id

    @property
    def stopped(self) -> bool:
        """Whether the replica is currently crashed."""
        return self._stopped

    def start(self) -> None:
        """Begin protocol operation (timers, first view)."""

    def stop(self) -> None:
        """Cease protocol operation (crash simulation)."""
        self._stopped = True

    def recover(self) -> None:
        """Resume protocol operation after :meth:`stop`.

        Subclasses re-arm their timers and run their catch-up path
        (sync requests, re-election) on top of this.
        """
        self._stopped = False

    # ------------------------------------------------------------------
    # Fault-injection lifecycle. The faults subsystem only calls these
    # two; engines whose crash/recovery handling needs more than
    # stop()/recover() (e.g. flushing volatile state) override them.

    def on_crash(self) -> None:
        """The hosting node crashed: cease operation, drop volatile state."""
        self.stop()

    def on_restart(self) -> None:
        """The hosting node restarted: rejoin and catch up with the group."""
        self.recover()

    def on_message(self, kind: str, sender: str, payload: typing.Any) -> None:
        """Handle a protocol message from a peer (ignored while crashed)."""
        if not self._stopped:
            self.handlers[kind](self, sender, payload)

    def submit_proposal(self, proposal: object) -> None:
        """Offer a proposal (a block) for ordering."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Decisions

    def _decide(
        self,
        proposal: object,
        proposer: str,
        evidence: typing.Optional[typing.Dict[str, object]] = None,
    ) -> None:
        """Append the next entry to the decided log, let the engine move
        past it (:meth:`_advance`), then record its decision."""
        sequence = len(self.decided_log)
        self.decided_log.append((proposal, proposer))
        self._advance(sequence + 1)
        self._record_decision(sequence, proposal, proposer, evidence)

    def _advance(self, next_sequence: int) -> None:
        """Move this engine's own position to ``next_sequence``, before
        the decision just logged is recorded."""

    def _replay(
        self, from_sequence: int, entries: typing.Sequence[typing.Tuple[object, str]]
    ) -> None:
        """Replay a peer's sync answer: the decided-log suffix starting at
        ``from_sequence``. Entries this replica already holds (a
        duplicate answer) are skipped."""
        for sequence, (proposal, proposer) in enumerate(entries, from_sequence):
            if sequence == len(self.decided_log):
                evidence = {"kind": "sync"} if self.context.checker.enabled else None
                self._decide(proposal, proposer, evidence)

    def _record_decision(
        self,
        sequence: int,
        proposal: object,
        proposer: str,
        evidence: typing.Optional[typing.Dict[str, object]] = None,
    ) -> None:
        """Hand the decision of ``sequence``, decided now, to the node."""
        decision = Decision(sequence, proposal, proposer, self.context.now)
        tracer = self.context.tracer
        if tracer.enabled:
            trace = self._trace.bind(tracer)
            if trace.wanted:
                trace.event("decision", self.replica_id, _DECISION_KEYS,
                            (type(self).__name__, sequence, proposer))
                trace.decisions.inc()
        checker = self.context.checker
        if checker.enabled:
            checker.on_decision(
                self.replica_id, type(self).__name__, decision,
                evidence or {}, self.context.n,
            )
        self.context.decide(decision)
