"""Shared machinery of the seven system models.

A :class:`SystemModel` owns one deployment: the simulated servers, the
network, the blockchain nodes (plus auxiliary components such as Fabric's
orderers or Corda's notaries), the per-system parameters (Table 5/6) and
the finality bookkeeping that implements the paper's end-to-end
confirmation rule — a client is notified only once a transaction is
persisted on *all* nodes (Figure 2).

Nodes are :class:`BaseNode` endpoints: each has its own chain replica,
world state, a single-threaded CPU (service times serialise on it) and an
event-delivery queue through which all client notifications flow, so an
overloaded delivery path loses notifications exactly the way the paper
observes on Fabric (Sections 5.4, 5.8.2).

Execution and MVCC validation are deterministic, so a decided block is
applied once per deployment: the first replica to apply it records its
net effect in the system's :attr:`SystemModel.execution_memo`, and every
other replica whose world state has the same lineage replays that block
diff (:meth:`BaseNode.replay_block`, :meth:`BaseNode.record_block`).
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import itertools
import typing

from repro.chains.profiles import PerformanceProfile, profile_for
from repro.consensus.base import Decision, EngineContext, ReplicaEngine
from repro.iel import create_iel
from repro.iel.base import InterfaceExecutionLayer, ReadWriteSetAdapter
from repro.net import Endpoint, Host, Message, Network
from repro.net.latency import DATACENTER_LATENCY, LatencyModel
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.sim.stores import Store
from repro.storage import (
    Block, Chain, Payload, Receipt, Transaction, TxStatus, WorldState,
)
from repro.storage.block import MerkleRoot
from repro.trace.tracer import Instruments

_proposal_counter = itertools.count(1)


def reset_proposal_counter() -> None:
    """Restart the proposal-id sequence (deterministic ids for tests)."""
    global _proposal_counter
    _proposal_counter = itertools.count(1)

#: The paper's testbed packs at most four blockchain nodes per server
#: (Section 5.8.2).
MAX_NODES_PER_SERVER = 4


@dataclasses.dataclass
class DeploymentSpec:
    """How a system is deployed for one benchmark run."""

    node_count: int = 4
    latency: typing.Optional[LatencyModel] = None
    seed: int = 0
    #: System-specific parameters overriding the defaults (Table 5/6
    #: names: MaxMessageCount, istanbul.blockperiod, block_interval, ...).
    params: typing.Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def server_count(self) -> int:
        """Servers carrying blockchain nodes.

        The base deployment puts one node per server on four servers
        (Table 4); the scalability study distributes 8/16/32 nodes over
        eight servers round-robin, at most four nodes per server
        (Section 5.8.2).
        """
        return min(8, self.node_count) if self.node_count > 4 else self.node_count


@dataclasses.dataclass(frozen=True)
class BlockProposal:
    """A cut block on its way through consensus (sealed on commit)."""

    proposal_id: str
    transactions: typing.Tuple[Transaction, ...]
    created_at: float
    #: System-specific annotations riding along (e.g. Fabric's rwsets).
    metadata: typing.Dict[str, object] = dataclasses.field(default_factory=dict)

    @classmethod
    def cut(
        cls,
        transactions: typing.Sequence[Transaction],
        created_at: float,
        proposal_id: typing.Optional[str] = None,
    ) -> "BlockProposal":
        """Make a proposal (fresh id unless the caller provides a
        deterministic one, e.g. Kafka-ordered cutting where every
        orderer must produce the identical block)."""
        return cls(
            proposal_id=proposal_id or f"prop{next(_proposal_counter)}",
            transactions=tuple(transactions),
            created_at=created_at,
        )

    @property
    def payload_count(self) -> int:
        """Payloads across all transactions."""
        return sum(len(tx.payloads) for tx in self.transactions)

    @functools.cached_property
    def size_bytes(self) -> int:
        """Wire size of the proposal, summed once (Raft re-reads it on
        every append it replicates)."""
        return 512 + sum(tx.size_bytes for tx in self.transactions)

    @property
    def is_empty(self) -> bool:
        """Whether the proposal carries no transactions."""
        return not self.transactions

    @functools.cached_property
    def root(self) -> MerkleRoot:
        """The Merkle root over the transactions, shared by every
        replica that seals this proposal and built on first read."""
        return MerkleRoot(self.transactions)

    def execution_time(self, node: "BaseNode") -> float:
        """``node.execution_time`` of the transactions, computed once per
        performance profile (every node of a system shares one)."""
        cached = self.__dict__.get("_execution_time")
        if cached is None or cached[0] is not node.profile:
            cached = (node.profile, node.execution_time(self.transactions))
            object.__setattr__(self, "_execution_time", cached)
        return cached[1]


@dataclasses.dataclass
class ExecutedBlock:
    """One replica's application of a decided proposal, for the others to
    replay (:meth:`BaseNode.replay_block`)."""

    #: The applied proposal's transaction tuple (identity-checked).
    transactions: typing.Tuple[Transaction, ...]
    #: The block diff: the final ``(value, version)`` of every key the
    #: block wrote, in first-touch order (:meth:`WorldState.block_diff`).
    writes: typing.Dict[str, typing.Tuple[object, int]]
    #: Transactions whose writes applied.
    commits: int
    #: Transactions that failed MVCC validation.
    invalidated: int
    outcome: typing.Dict[str, typing.Tuple[TxStatus, str]]
    #: Payloads that executed successfully.
    executed: int
    #: World-state lineage after the block.
    lineage: int
    #: Live replicas that have not applied the block yet; the entry is
    #: dropped once none is left (a crash releases the crashed one).
    owed: typing.Set[str]


@dataclasses.dataclass(frozen=True)
class ClientReject:
    """An immediate rejection notice (queue full, double spend...)."""

    payload_ids: typing.Tuple[str, ...]
    reason: str


class FinalityTracker:
    """Implements "persisted on all nodes" (paper Figure 2, T3).

    Keys are proposal or transaction ids; once every required node has
    recorded a commit for a key, the registered callback fires with the
    time of the *last* commit.
    """

    def __init__(self, required_nodes: typing.Sequence[str]) -> None:
        self.required: typing.Set[str] = set(required_nodes)
        if not self.required:
            raise ValueError("finality requires at least one node")
        self._commits: typing.Dict[str, typing.Set[str]] = {}
        self._callback: typing.Optional[typing.Callable[[str, float], None]] = None
        self.finalized_count = 0

    def on_final(self, callback: typing.Callable[[str, float], None]) -> None:
        """Register the single finality callback ``(key, last_commit_time)``."""
        self._callback = callback

    def record_commit(self, key: str, node_id: str, now: float) -> bool:
        """Note that ``node_id`` persisted ``key``; returns True on finality."""
        if node_id not in self.required:
            raise ValueError(f"unexpected node {node_id!r} for finality of {key!r}")
        seen = self._commits.setdefault(key, set())
        seen.add(node_id)
        if seen == self.required:
            del self._commits[key]
            self.finalized_count += 1
            if self._callback is not None:
                self._callback(key, now)
            return True
        return False


class BaseNode(Endpoint):
    """One blockchain node: chain replica, state, CPU, event delivery."""

    #: The consensus engine this node hosts, if any (order-execute
    #: replicas; the system's ``build()`` sets it, see
    #: :meth:`SystemModel.engine_context`). :meth:`on_message` hands it
    #: every message whose kind is in its ``message_kinds``.
    engine: typing.Optional[ReplicaEngine] = None

    def __init__(self, system: "SystemModel", node_id: str) -> None:
        super().__init__(node_id)
        self.system = system
        self.sim: Simulator = system.sim
        self.profile: PerformanceProfile = system.profile
        self.chain = Chain(owner=node_id)
        self.state = WorldState()
        self.iel: InterfaceExecutionLayer = create_iel(system.iel_name)
        self.cpu = Resource(self.sim, capacity=1, name=f"{node_id}-cpu")
        self._event_queue: Store = Store(self.sim, name=f"{node_id}-events")
        self._event_backlog_payloads = 0
        self.dropped_notifications = 0
        self.rejected_submissions = 0
        self.executed_payloads = 0
        system_name = system.name
        self._trace_iel = Instruments(
            "iel", payloads=("counter", "iel.payloads", system_name, node_id),
        )
        self._trace_storage = Instruments(
            "storage",
            blocks=("counter", "storage.blocks", system_name, node_id),
            block_payloads=("histogram", "storage.block_payloads", system_name, ""),
        )
        self._trace_chain = Instruments(
            "chain",
            dropped_notifications=(
                "counter", "chain.dropped_notifications", system_name, node_id,
            ),
        )
        self.sim.schedule(0.0, self._event_queue.get, self._emit)

    # ------------------------------------------------------------------
    # Cost helpers

    def start_job(self, cost: float, callback: typing.Callable[..., None], *args: object) -> None:
        """Start a one-shot CPU job: hold this node's CPU for ``cost``,
        then run ``callback(*args)``.

        One start hop, then :meth:`~repro.sim.resources.Resource.hold`,
        whose grant hop goes straight into the cost's wait (DESIGN §10
        maps every hop). An exception in ``callback`` propagates out of
        ``Simulator.run``.
        """
        self.sim.schedule(0.0, self.cpu.hold, cost, callback, *args)

    def execution_time(self, transactions: typing.Iterable[Transaction]) -> float:
        """Execution + per-tx overhead time for a set of transactions."""
        per_tx_overhead = self.profile.per_tx_overhead
        cost_for = self.profile.execute_cost_for
        total = 0.0
        for tx in transactions:
            total += per_tx_overhead
            for payload in tx.payloads:
                total += cost_for(payload.function)
        return total

    # ------------------------------------------------------------------
    # State application

    def apply_payloads(
        self, proposal: BlockProposal
    ) -> typing.Dict[str, typing.Tuple[TxStatus, str]]:
        """Order-execute application: run every payload of a decided
        proposal on world state.

        Returns ``payload_id -> (status, detail)``. Transactions are
        atomic: a failing payload discards its whole transaction
        (BitShares operations; Sawtooth maps batches separately).

        When another replica already applied ``proposal`` from a state
        with the same lineage, its block diff is replayed instead
        (:meth:`replay_block`); a state without a lineage always
        executes.
        """
        outcome = self.replay_block(proposal)
        if outcome is None:
            state = self.state
            lineage = state.lineage
            outcome = {}
            touched: typing.Dict[str, object] = {}
            executed = commits = invalidated = 0
            for tx in proposal.transactions:
                # Buffer each transaction's writes so an atomic failure
                # leaves the world state untouched. Payloads inside the
                # transaction see each other's writes through the buffer.
                adapter = ReadWriteSetAdapter(state)
                results = [self.iel.execute(payload, adapter) for payload in tx.payloads]
                error = next((r.error for r in results if not r.ok), None)
                status = (TxStatus.COMMITTED, "") if error is None else (TxStatus.DISCARDED, error)
                for payload in tx.payloads:
                    outcome[payload.payload_id] = status
                if error is not None:
                    continue
                if state.apply(adapter.rwset):
                    touched.update(adapter.rwset.writes)
                    commits += 1
                else:
                    invalidated += 1
                executed += len(tx.payloads)
            self.record_block(proposal, lineage, touched, outcome, executed, commits, invalidated)
        self._trace_execution(len(outcome))
        checker = self.sim.checker
        if checker.enabled:
            checker.on_apply(self.endpoint_id, outcome)
        return outcome

    def replay_block(
        self, proposal: BlockProposal
    ) -> typing.Optional[typing.Dict[str, typing.Tuple[TxStatus, str]]]:
        """Replay ``proposal`` as another replica applied it from a state
        with this state's lineage: its block diff, commit and
        invalidation counts, executed payloads and (a copy of) its
        outcome.

        Returns ``None`` when this replica must apply the block itself:
        its state has no lineage, no entry is left for it, or the entry
        holds another transaction tuple. Either way this replica no
        longer owes the entry a replay.
        """
        state = self.state
        if state.lineage is None:
            return None
        memo = self.system.execution_memo
        key = (state.lineage, proposal.proposal_id)
        entry = memo.get(key)
        if entry is None:
            return None
        entry.owed.discard(self.endpoint_id)
        if not entry.owed:
            del memo[key]
        if entry.transactions is not proposal.transactions:
            return None
        state.apply_block_diff(entry.writes, entry.commits, entry.invalidated, entry.lineage)
        self.executed_payloads += entry.executed
        return dict(entry.outcome)

    def record_block(
        self,
        proposal: BlockProposal,
        lineage: typing.Optional[int],
        touched: typing.Iterable[str],
        outcome: typing.Dict[str, typing.Tuple[TxStatus, str]],
        executed: int,
        commits: int,
        invalidated: int,
    ) -> None:
        """Account this replica's own application of ``proposal`` from a
        state of lineage ``lineage``, which wrote the keys ``touched``.

        A state with a lineage takes the one that follows ``lineage`` by
        this proposal. Every replica that applies the proposal there gets
        the same token, so one that had to apply it itself (it was down
        when the entry was made) ends on the lineage replaying ones reach.
        The first application records an :class:`ExecutedBlock` for the
        live replicas with a lineage that have not applied the block yet.
        """
        self.executed_payloads += executed
        if lineage is None:
            return
        system = self.system
        key = (lineage, proposal.proposal_id)
        after = system._lineage_after.get(key)
        if after is None:
            after = system._lineage_after[key] = next(system._lineage_tokens)
        state = self.state
        state.lineage = after
        memo = system.execution_memo
        if key in memo:
            return
        height = self.chain.height
        is_up = system.network.endpoint_is_up
        owed = {
            node_id for node_id, node in system.nodes.items()
            if node is not self and node.state.lineage is not None
            and node.chain.height <= height and is_up(node_id)
        }
        if owed:
            memo[key] = ExecutedBlock(
                proposal.transactions, state.block_diff(touched), commits, invalidated,
                dict(outcome), executed, after, owed,
            )

    def _trace_execution(self, payload_count: int) -> None:
        """Account one IEL application batch on this node."""
        tracer = self.sim.tracer
        if tracer.enabled and payload_count:
            trace = self._trace_iel.bind(tracer)
            if trace.wanted:
                trace.event("iel.apply", self.endpoint_id, {
                    "payloads": payload_count, "iel": self.system.iel_name,
                })
                trace.payloads.inc(payload_count)

    def try_apply_batch(
        self, transactions: typing.Iterable[Transaction]
    ) -> typing.Tuple[bool, typing.Dict[str, typing.Tuple[TxStatus, str]]]:
        """Batch-atomic application (Sawtooth semantics).

        All payloads of all transactions execute against one buffer; if
        any payload fails, nothing is applied and every payload reports
        DISCARDED. Otherwise the buffer is applied and all report
        COMMITTED.
        """
        adapter = ReadWriteSetAdapter(self.state)
        outcome: typing.Dict[str, typing.Tuple[TxStatus, str]] = {}
        ok = True
        first_error = ""
        for tx in transactions:
            for payload in tx.payloads:
                result = self.iel.execute(payload, adapter)
                outcome[payload.payload_id] = (
                    (TxStatus.COMMITTED, "") if result.ok else (TxStatus.DISCARDED, result.error)
                )
                if not result.ok and ok:
                    ok = False
                    first_error = result.error
        if not ok:
            outcome = {
                payload_id: (TxStatus.DISCARDED, first_error) for payload_id in outcome
            }
            return False, outcome
        self.state.apply(adapter.rwset)
        self.executed_payloads += len(outcome)
        self._trace_execution(len(outcome))
        checker = self.sim.checker
        if checker.enabled:
            checker.on_apply(self.endpoint_id, outcome)
        return True, outcome

    def seal_and_append(self, proposal: BlockProposal, proposer: str) -> Block:
        """Turn a decided proposal into a block on this node's chain.

        The header timestamp is the proposal's creation time — part of
        the agreed content — so every replica seals a byte-identical
        block. The block links to the head by reference and hashes
        nothing until a reader (validation, the oracles) asks.
        """
        block = Block.linked(self.chain.head, proposal.root, proposer, proposal.created_at)
        # Sealed here from the decided proposal, so its Merkle root is
        # correct by construction; skip the per-transaction re-hash.
        self.chain.append(block, verify_merkle=False)
        checker = self.sim.checker
        if checker.enabled:
            checker.on_block(self.endpoint_id, block)
        tracer = self.sim.tracer
        if tracer.enabled:
            trace = self._trace_storage.bind(tracer)
            if trace.wanted:
                trace.event("block.append", self.endpoint_id, {
                    "height": block.height, "txs": len(proposal.transactions),
                    "payloads": proposal.payload_count, "bytes": proposal.size_bytes,
                })
                trace.blocks.inc()
                trace.block_payloads.record(proposal.payload_count)
        return block

    # ------------------------------------------------------------------
    # Messaging

    def on_message(self, message: Message) -> None:
        kind = message.kind
        engine = self.engine
        if engine is not None and kind in engine.message_kinds:
            engine.on_message(kind, message.src, message.payload)
        elif kind == "client/submit":
            self.system.handle_submit(self, message)
        else:
            self.system.handle_node_message(self, message)

    # ------------------------------------------------------------------
    # Event delivery (the end-to-end notification path)

    def notify_client(self, client_id: str, receipts: typing.Sequence[Receipt]) -> None:
        """Queue finalization notifications for delivery to a client.

        When the backlog exceeds the profile's event-queue capacity the
        notifications are dropped — committed on chain, never observed by
        the client (the paper's Fabric failure mode).
        """
        if not receipts:
            return
        capacity = self.profile.event_queue_capacity
        if capacity is not None and self._event_backlog_payloads + len(receipts) > capacity:
            self.dropped_notifications += len(receipts)
            tracer = self.sim.tracer
            if tracer.enabled:
                trace = self._trace_chain.bind(tracer)
                if trace.wanted:
                    trace.event("notify.drop", self.endpoint_id, {
                        "client": client_id, "count": len(receipts),
                        "backlog": self._event_backlog_payloads,
                    })
                    trace.dropped_notifications.inc(len(receipts))
            return
        self._event_backlog_payloads += len(receipts)
        self._event_queue.put((client_id, list(receipts)))

    def reject_client(self, client_id: str, payload_ids: typing.Sequence[str], reason: str) -> None:
        """Send an immediate rejection notice."""
        self.rejected_submissions += len(payload_ids)
        self.send(
            client_id,
            "client/reject",
            ClientReject(tuple(payload_ids), reason),
            size_bytes=64 + 16 * len(payload_ids),
        )

    def _emit(self, item: typing.Tuple[str, typing.List[Receipt]]) -> None:
        """The event emitter: spend the emit time on one queued
        notification, then send it (a loop over the event queue)."""
        emit_time = self.profile.event_emit_cost * len(item[1])
        if emit_time > 0:
            self.sim.resume_after(emit_time, self._emitted, item)
        else:
            self._emitted(item)

    def _emitted(self, item: typing.Tuple[str, typing.List[Receipt]]) -> None:
        client_id, receipts = item
        self._event_backlog_payloads -= len(receipts)
        self.send(
            client_id,
            "client/receipt",
            receipts,
            size_bytes=64 + 48 * len(receipts),
        )
        self._event_queue.get(self._emit)


class ReplicaNode(BaseNode):
    """A validator of an order-execute chain (Quorum, Diem, BitShares,
    Sawtooth): its consensus engine decides blocks, and the node
    executes, seals and reports each one in decision order."""

    def __init__(self, system: "SystemModel", node_id: str) -> None:
        super().__init__(system, node_id)
        self._commit_queue: Store = Store(self.sim, name=f"{node_id}-commits")
        self.empty_blocks = 0
        self.sim.schedule(0.0, self._commit_queue.get, self._commit)

    def enqueue_commit(self, decision: Decision) -> None:
        """The engine decided a slot; queue its block for execution.
        A slot without a block (a DiemBFT NIL round) is dropped."""
        if decision.proposal is not None:
            self._commit_queue.put(decision)

    def _commit(self, decision: Decision) -> None:
        """The committer: commit one decided block, in decision order
        (a loop over the commit queue)."""
        self.commit_block(typing.cast(BlockProposal, decision.proposal), decision.proposer)

    def block_cost(self, proposal: BlockProposal) -> float:
        """CPU seconds this node spends committing a non-empty block."""
        return self.profile.block_overhead + proposal.execution_time(self)

    def commit_block(self, proposal: BlockProposal, proposer: str) -> None:
        """Execute, seal and report one decided block; every path ends
        in :meth:`block_committed`."""
        if proposal.is_empty:
            self.empty_blocks += 1
            self.seal_and_append(proposal, proposer)
            self.block_committed(proposal)
            return
        self.cpu.hold(self.block_cost(proposal), self._apply_block, proposal, proposer)

    def _apply_block(self, proposal: BlockProposal, proposer: str) -> None:
        outcome = self.apply_payloads(proposal)
        self.seal_and_append(proposal, proposer)
        self.system.stage_finality(proposal.proposal_id, outcome, self.chain.height)
        self.system.record_commit(proposal.proposal_id, self.endpoint_id)
        self.block_committed(proposal)

    def block_committed(self, proposal: BlockProposal) -> None:
        """``proposal`` is on the chain: take the next decided block."""
        self._commit_queue.get(self._commit)


class SystemModel(abc.ABC):
    """One deployed blockchain system under test."""

    #: Registry name ("fabric", "quorum", ...).
    name: str = ""
    #: Seconds the system needs to stabilise before serving workloads
    #: (Section 4.4: 180 s BitShares/Quorum, 60 s Sawtooth, 0 otherwise).
    stabilization_time: float = 0.0

    def __init__(self, sim: Simulator, spec: DeploymentSpec, iel_name: str) -> None:
        self.sim = sim
        self.spec = spec
        self.iel_name = iel_name
        self.profile = profile_for(self.name)
        self.params: typing.Dict[str, object] = {**self.default_params(), **spec.params}
        latency = spec.latency or DATACENTER_LATENCY
        self.network = Network(sim, default_latency=latency, name=self.name)
        self.server_hosts = [Host(f"server-{i}") for i in range(spec.server_count)]
        self.node_ids = [f"{self.name}-n{i}" for i in range(spec.node_count)]
        self.nodes: typing.Dict[str, BaseNode] = {}
        for index, node_id in enumerate(self.node_ids):
            node = self.make_node(node_id)
            host = self.server_hosts[index % len(self.server_hosts)]
            self.network.attach(node, host)
            self.nodes[node_id] = node
        self.finality = FinalityTracker(self.node_ids)
        self.finality.on_final(self._on_final)
        #: ``(pre-state lineage, proposal id) -> ExecutedBlock`` awaiting
        #: replay by the other replicas (see :meth:`BaseNode.replay_block`).
        self.execution_memo: typing.Dict[typing.Tuple[int, str], ExecutedBlock] = {}
        #: ``(pre-state lineage, proposal id) -> lineage after the block``.
        #: A proposal id names one block, so the pair fixes the content.
        self._lineage_after: typing.Dict[typing.Tuple[int, str], int] = {}
        self._lineage_tokens = itertools.count(1)
        #: client_id -> gateway node id (set on subscribe).
        self.subscriptions: typing.Dict[str, str] = {}
        #: payload_id -> submitting client id, recorded on admission
        #: (:meth:`remember_owner`) to route receipts.
        self._owners: typing.Dict[str, str] = {}
        #: proposal/tx id -> pending finalization context.
        self._pending_final: typing.Dict[str, typing.Dict[str, typing.Tuple[TxStatus, str]]] = {}
        self._pending_height: typing.Dict[str, typing.Optional[int]] = {}
        self.started = False
        #: True when a fault plan is installed on this deployment. Systems
        #: whose failure handling would perturb calibrated healthy-run
        #: behaviour (Corda's flow reply timeouts) only arm it when set,
        #: keeping fault-free runs byte-identical.
        self.fault_mode = False
        self.build()

    # ------------------------------------------------------------------
    # Subclass hooks

    @abc.abstractmethod
    def default_params(self) -> typing.Dict[str, object]:
        """The system's default parameter values (Tables 5/6)."""

    def make_node(self, node_id: str) -> BaseNode:
        """Create one node (subclasses return their node subclass)."""
        return BaseNode(self, node_id)

    @abc.abstractmethod
    def build(self) -> None:
        """Wire consensus engines and auxiliary components."""

    @abc.abstractmethod
    def start(self) -> None:
        """Begin operation (engines, block timers)."""

    def handle_submit(self, node: BaseNode, message: Message) -> None:
        """Admit one client submission arriving at ``node``.

        The default is pooled admission, shared by Quorum, Diem and
        BitShares: ``node`` spends the profile's admission cost per
        payload on its CPU, then :meth:`_admit` pools the transaction or
        rejects it. Systems with their own submission path (Fabric,
        Corda, Sawtooth) override this.
        """
        transaction = typing.cast(Transaction, message.payload)
        node.start_job(
            self.profile.admission_cost * len(transaction.payloads),
            self._admit, node, message.src, transaction,
        )

    # ------------------------------------------------------------------
    # Pooled admission hooks

    #: ``params`` key of the pool's capacity (pooled admission only).
    pool_capacity_param: str = ""
    #: The reason a rejection notice gives when the pool is full.
    pool_full_reason: str = ""

    def _admit(self, node: BaseNode, client_id: str, transaction: Transaction) -> None:
        """Pool ``transaction``, or reject it to ``client_id`` when the
        pool has no room for it (counted in ``pool_rejections``)."""
        if self.pool_full(transaction, int(self.params[self.pool_capacity_param])):
            self.pool_rejections += 1
            node.reject_client(
                client_id, [p.payload_id for p in transaction.payloads], self.pool_full_reason
            )
            return
        self.remember_owner(transaction.payloads)
        self.pool_add(transaction)

    def pool_full(self, transaction: Transaction, capacity: int) -> bool:
        """Whether the pool, holding at most ``capacity``, has no room
        for ``transaction`` (pooled admission only)."""
        raise NotImplementedError(f"{self.name}: no pooled admission")

    def pool_add(self, transaction: Transaction) -> None:
        """Put an admitted transaction in the pool (pooled admission only)."""
        raise NotImplementedError(f"{self.name}: no pooled admission")

    def engine_context(
        self,
        replica_id: str,
        peers: typing.Sequence[str],
        decide_fn: typing.Callable[[Decision], None],
        rng_name: str,
    ) -> EngineContext:
        """The context an engine replica on ``replica_id`` talks through:
        this deployment's network and simulator, and the RNG stream
        ``rng_name``."""
        return EngineContext(
            self.sim, self.network, replica_id, peers, decide_fn, self.sim.rng.stream(rng_name)
        )

    def handle_node_message(self, node: BaseNode, message: Message) -> None:
        """Handle non-engine, non-submit node traffic (override as needed)."""
        raise NotImplementedError(f"{self.name}: unhandled message kind {message.kind!r}")

    # ------------------------------------------------------------------
    # Fault injection (crash/restart lifecycle)

    def engine_of(self, endpoint_id: str) -> typing.Optional[object]:
        """The consensus engine behind an endpoint, if it has one.

        Systems whose consensus lives off the node (Fabric's orderers,
        Corda's notaries) override this to cover those endpoints too.
        """
        node = self.nodes.get(endpoint_id)
        return node.engine if node is not None else None

    def leader_id(self) -> typing.Optional[str]:
        """The endpoint currently coordinating consensus (Raft leader,
        PBFT primary, IBFT proposer, DiemBFT round leader, DPoS slot
        witness), as the first live engine sees it; ``None`` when every
        engine is stopped."""
        for node_id in self.node_ids:
            engine = self.engine_of(node_id)
            if engine is not None and not engine.stopped:
                return engine.leader_id
        return None

    def enter_fault_mode(self) -> None:
        """Arm the defensive paths that stay cold in healthy runs.

        Sets :attr:`fault_mode` and switches every consensus engine into
        recovery mode (vote re-broadcast, gap sync — behaviours that
        would perturb calibrated fault-free schedules).
        """
        self.fault_mode = True
        for node_id in self.node_ids:
            engine = self.engine_of(node_id)
            if engine is not None and hasattr(engine, "enable_recovery"):
                engine.enable_recovery()

    def crash_node(self, endpoint_id: str) -> None:
        """Crash one endpoint: it stops sending, receiving and deciding.

        Messages already in flight toward it are dropped. Durable state
        (chain replica, world state, decided logs) survives — the model's
        crashes are process crashes, not disk loss.
        """
        self.network.set_endpoint_down(endpoint_id)
        engine = self.engine_of(endpoint_id)
        if engine is not None:
            engine.on_crash()
        # A crashed replica may never return: release the replays it
        # owes. After a restart it applies what it missed itself.
        memo = self.execution_memo
        for key, entry in list(memo.items()):
            entry.owed.discard(endpoint_id)
            if not entry.owed:
                del memo[key]
        self._post_crash(endpoint_id)

    def restart_node(self, endpoint_id: str) -> None:
        """Restart a crashed endpoint; its engine runs its recovery path."""
        self.network.set_endpoint_up(endpoint_id)
        engine = self.engine_of(endpoint_id)
        if engine is not None:
            engine.on_restart()
        self._post_restart(endpoint_id)

    def _post_crash(self, endpoint_id: str) -> None:
        """System-specific crash side effects (override as needed)."""

    def _post_restart(self, endpoint_id: str) -> None:
        """System-specific restart side effects (override as needed)."""

    # ------------------------------------------------------------------
    # Client attachment

    def attach_client(self, client: Endpoint, host: Host) -> None:
        """Put a client endpoint on the network."""
        self.network.attach(client, host)

    def gateway_for(self, client_index: int) -> str:
        """The node a client connects to (one client per server, paper 4.3)."""
        return self.node_ids[client_index % len(self.node_ids)]

    def subscribe(self, client_id: str, gateway_node_id: str) -> None:
        """Register a client for finalization notifications via a gateway."""
        if gateway_node_id not in self.nodes:
            raise KeyError(f"unknown gateway node {gateway_node_id!r}")
        self.subscriptions[client_id] = gateway_node_id

    # ------------------------------------------------------------------
    # Finality plumbing

    def stage_finality(
        self,
        key: str,
        outcome: typing.Dict[str, typing.Tuple[TxStatus, str]],
        block_height: typing.Optional[int],
    ) -> None:
        """Record the payload outcomes that finality of ``key`` will report."""
        self._pending_final[key] = outcome
        self._pending_height[key] = block_height
        tracer = self.sim.tracer
        if tracer.enabled:
            # First local commit -> persisted on all nodes (Figure 2, T3).
            tracer.begin(
                ("finality", self.name, key), "block.finality", category="chain",
                key=key, payloads=len(outcome), height=block_height,
            )

    def record_commit(self, key: str, node_id: str) -> None:
        """A node persisted ``key``; fires finality when it is the last."""
        self.finality.record_commit(key, node_id, self.sim.now)

    def _on_final(self, key: str, commit_time: float) -> None:
        outcome = self._pending_final.pop(key, None)
        height = self._pending_height.pop(key, None)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.end(("finality", self.name, key), at=commit_time)
        if not outcome:
            return
        by_client: typing.Dict[str, typing.List[Receipt]] = {}
        owners = self._owners
        for payload_id, (status, detail) in outcome.items():
            client_id = owners.pop(payload_id, "")
            receipt = Receipt(
                payload_id=payload_id,
                tx_id=key,
                status=status,
                block_height=height,
                commit_time=commit_time,
                detail=detail,
            )
            by_client.setdefault(client_id, []).append(receipt)
        for client_id, receipts in by_client.items():
            gateway_id = self.subscriptions.get(client_id)
            if gateway_id is None:
                continue
            self.nodes[gateway_id].notify_client(client_id, receipts)

    def remember_owner(self, payloads: typing.Iterable[Payload]) -> None:
        """Record which client each payload belongs to."""
        owners = self._owners
        checker = self.sim.checker
        for payload in payloads:
            owners[payload.payload_id] = payload.client_id
            if checker.enabled:
                checker.on_payload(payload)

    # ------------------------------------------------------------------
    # Diagnostics

    def total_chain_height(self) -> typing.Dict[str, int]:
        """Chain height per node (diagnostic)."""
        return {node_id: node.chain.height for node_id, node in self.nodes.items()}

    def validate_all_chains(self) -> None:
        """Full tamper-evidence validation of every replica, plus mutual
        prefix consistency — the safety check integration tests run."""
        nodes = list(self.nodes.values())
        for node in nodes:
            node.chain.validate()
        for other in nodes[1:]:
            if not nodes[0].chain.same_prefix(other.chain):
                raise AssertionError(
                    f"chains diverged between {nodes[0].endpoint_id} and {other.endpoint_id}"
                )
