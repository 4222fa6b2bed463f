"""Hyperledger Fabric v2.x — execute-order-validate with Raft ordering.

The model follows the real pipeline (Androulaki et al., EuroSys '18):

1. *Endorsement*: the gateway peer simulates the chaincode against its
   current world state, recording a read/write set per transaction.
2. *Ordering*: endorsed envelopes go to the ordering service — three
   orderer endpoints on servers 1–3 (Table 4) running the real
   :class:`~repro.consensus.raft.RaftEngine`. The Raft leader cuts blocks
   at ``MaxMessageCount`` envelopes or the batch timeout, whichever is
   first.
3. *Validation*: every peer receives delivered blocks, re-checks each
   read set against its world state (MVCC) and appends the block —
   including transactions that failed validation, which are flagged
   invalid but remain on chain (Section 5.4: the paper counts them as
   received).

Known behaviour reproduced by an explicit mechanism: with 16 or more
peers the client event-delivery service breaks down — peers and orderers
keep finalising but clients receive no confirmations (Section 5.8.2).
The paper observed this without isolating a root cause; we model it as
the gateway event service dropping all notifications above that size.
"""

from __future__ import annotations

import collections
import typing

from repro.chains.base import BaseNode, BlockProposal, SystemModel
from repro.consensus.base import Decision
from repro.consensus.raft import RaftEngine
from repro.iel.base import ReadWriteSetAdapter
from repro.net import Endpoint, Message
from repro.sim.kernel import Simulator
from repro.sim.stores import Store
from repro.storage import ReadWriteSet, Transaction, TxStatus

if typing.TYPE_CHECKING:  # pragma: no cover - imported by Kafka-ordered deployments
    from repro.consensus.kafka import KafkaBroker

#: Peer count at which the client event service collapses (Section 5.8.2).
EVENT_SERVICE_PEER_LIMIT = 16

#: Number of ordering-service nodes (Table 4: "3 orderers, servers 1-3").
ORDERER_COUNT = 3

#: Flow-control window of the peer -> orderer broadcast stream: at most
#: this many unacknowledged envelopes in flight. Harmless inside the
#: data centre (sub-millisecond acks) but it caps per-peer submission at
#: window/RTT under WAN latency — the paper's 33-40% Fabric drop under
#: netem (Section 5.8.1).
BROADCAST_WINDOW = 6


class FabricEnvelope:
    """An endorsed transaction on its way to the orderers.

    The cut that puts it in a block moves its read/write set into the
    system's :attr:`FabricSystem.rwsets` (``rwset`` is then ``None``).
    """

    __slots__ = ("transaction", "rwset", "endorsed_at")

    def __init__(
        self, transaction: Transaction, rwset: typing.Optional[ReadWriteSet], endorsed_at: float
    ) -> None:
        self.transaction = transaction
        self.rwset = rwset
        self.endorsed_at = endorsed_at

    @property
    def size_bytes(self) -> int:
        return self.transaction.size_bytes + 128


class FabricPeer(BaseNode):
    """An endorsing/committing peer."""

    system: "FabricSystem"

    def __init__(self, system: "FabricSystem", node_id: str) -> None:
        super().__init__(system, node_id)
        self.in_flight = 0
        self._delivery_queue: Store = Store(self.sim, name=f"{node_id}-deliver")
        self._stream_inflight = 0
        self._stream_backlog: typing.Deque[FabricEnvelope] = collections.deque()
        self._seen_proposals: typing.Set[str] = set()
        self._next_deliver_seq = 0
        self.sim.schedule(0.0, self._delivery_queue.get, self._commit)

    def forward_envelope(self, envelope: FabricEnvelope) -> None:
        """Push an envelope onto the flow-controlled orderer stream."""
        if self._stream_inflight < BROADCAST_WINDOW:
            self._stream_send(envelope)
        else:
            self._stream_backlog.append(envelope)

    def _stream_send(self, envelope: FabricEnvelope) -> None:
        target = self.system.stream_target_for(self.endpoint_id)
        if target is None:
            return  # whole ordering service down; the envelope is lost
        self._stream_inflight += 1
        self.send(target, "fabric/envelope", envelope, size_bytes=envelope.size_bytes)

    def reset_stream(self) -> None:
        """The broadcast stream's orderer died: reconnect.

        Unacknowledged envelopes were on the dead orderer's side of the
        stream and are lost; the backlog re-streams to a live orderer.
        """
        self._stream_inflight = 0
        while self._stream_backlog and self._stream_inflight < BROADCAST_WINDOW:
            self._stream_send(self._stream_backlog.popleft())

    def on_stream_ack(self) -> None:
        """The orderer acknowledged one envelope; release the window."""
        self._stream_inflight -= 1
        if self._stream_backlog:
            self._stream_send(self._stream_backlog.popleft())

    def endorsement_cost(self, transaction: Transaction) -> float:
        """CPU time this peer spends endorsing ``transaction``."""
        cost_for = self.profile.execute_cost_for
        execution = 0.0
        for payload in transaction.payloads:
            execution += cost_for(payload.function)
        return self.profile.admission_cost + execution

    def endorse(self, transaction: Transaction) -> FabricEnvelope:
        """Simulate the chaincode, producing the envelope; the caller has
        already charged :meth:`endorsement_cost` on this peer's CPU."""
        adapter = ReadWriteSetAdapter(self.state)
        for payload in transaction.payloads:
            self.iel.execute(payload, adapter)
        return FabricEnvelope(transaction, adapter.rwset, self.sim.now)

    def enqueue_block(self, seq: int, proposal: BlockProposal, proposer: str) -> None:
        """A block arrived from the ordering service.

        The deliver stream is sequenced: ``seq`` is the block's position
        in the ordering service's output. Receiving block ``seq`` while
        an earlier one is still outstanding means deliveries were lost —
        the peer's link was cut by a partition, or its orderer died after
        committing but before delivering. The real deliver service reads
        blocks by number from the peer's ledger height, so the gap is
        filled from the orderers' durable block log before the new block
        is admitted; without this the peer would seal later blocks at its
        own (lower) heights and fork its ledger.

        Duplicates are dropped: after an orderer failover, a peer
        restart, or a gap fill racing an in-flight delivery, the same
        block can be offered twice.
        """
        if seq > self._next_deliver_seq:
            block_log = self.system.block_log
            for missed_seq in range(self._next_deliver_seq, seq):
                missed, missed_proposer = block_log[missed_seq]
                self._admit(missed_seq, missed, missed_proposer)
        self._admit(seq, proposal, proposer)

    def _admit(self, seq: int, proposal: BlockProposal, proposer: str) -> None:
        if proposal.proposal_id in self._seen_proposals:
            return
        self._seen_proposals.add(proposal.proposal_id)
        self._next_deliver_seq = seq + 1
        self._delivery_queue.put((proposal, proposer))

    def validate_block(self, proposal: BlockProposal) -> typing.Dict[str, typing.Tuple[TxStatus, str]]:
        """The validate phase for one delivered block: MVCC-check every
        endorsed read/write set against this peer's world state, in
        order, applying the ones that pass.

        Returns ``payload_id -> (status, detail)``. When another peer
        already validated the block from a state with the same lineage,
        its block diff is replayed instead (:meth:`replay_block`).
        """
        replayed = self.replay_block(proposal)
        if replayed is not None:
            return replayed
        state = self.state
        lineage = state.lineage
        outcome: typing.Dict[str, typing.Tuple[TxStatus, str]] = {}
        touched: typing.Dict[str, object] = {}
        executed = commits = 0
        rwsets = self.system.rwsets[proposal.proposal_id]
        for tx in proposal.transactions:
            rwset = rwsets[tx.tx_id]
            if state.apply(rwset):
                touched.update(rwset.writes)
                commits += 1
                executed += len(tx.payloads)
                status = (TxStatus.COMMITTED, "")
            else:
                status = (TxStatus.INVALIDATED, "mvcc read conflict")
            for payload in tx.payloads:
                outcome[payload.payload_id] = status
        invalidated = len(proposal.transactions) - commits
        self.record_block(proposal, lineage, touched, outcome, executed, commits, invalidated)
        return outcome

    def _commit(self, delivered: typing.Tuple[BlockProposal, str]) -> None:
        """The committer: validate one delivered block on this peer's
        CPU (a loop over the delivery queue). The block's execution time
        is computed once and shared by every peer."""
        proposal, proposer = delivered
        validation_cost = self.profile.block_overhead + proposal.execution_time(self)
        self.cpu.hold(validation_cost, self._validated, proposal, proposer)

    def _validated(self, proposal: BlockProposal, proposer: str) -> None:
        system = self.system
        outcome = self.validate_block(proposal)
        checker = self.sim.checker
        if checker.enabled:
            checker.on_apply(self.endpoint_id, outcome)
        self.seal_and_append(proposal, proposer)
        system.stage_finality(proposal.proposal_id, outcome, self.chain.height)
        system.record_commit(proposal.proposal_id, self.endpoint_id)
        self._delivery_queue.get(self._commit)


class FabricOrderer(Endpoint):
    """One ordering-service node.

    Runs in one of two modes (Section 5.4 compares them): ``raft``
    (the default) embeds a Raft replica and the leader cuts blocks;
    ``kafka`` publishes envelopes plus time-to-cut markers to the broker
    and every orderer cuts identical blocks from the totally ordered
    stream. A Kafka-mode orderer has no engine.
    """

    def __init__(self, system: "FabricSystem", orderer_id: str) -> None:
        super().__init__(orderer_id)
        self.system = system
        self.sim: Simulator = system.sim
        self.engine: typing.Optional[RaftEngine] = None
        self.pending: typing.List[FabricEnvelope] = []
        self.blocks_cut = 0
        self.crashed = False
        # Kafka mode state: the consumed stream's cursor.
        self._kafka_pending: typing.List[FabricEnvelope] = []
        self._kafka_first_offset = 0
        self._kafka_last_ttc = -1
        #: Next broker offset this consumer expects; a restarted orderer
        #: replays the log from here.
        self._kafka_consumed = 0
        self._kafka_future: typing.Dict[int, typing.Tuple[str, object]] = {}

    def on_message(self, message: Message) -> None:
        kind = message.kind
        # Envelopes first: they outnumber the Raft traffic by far.
        if kind == "fabric/envelope":
            src = message.src
            if src in self.system.nodes:
                # Acknowledge the peer's stream slot (relays between
                # orderers are not flow controlled).
                self.send(src, "fabric/envelope_ack", None, size_bytes=32)
            self._accept_envelope(message.payload)
            return
        engine = self.engine
        if engine is not None and kind in engine.message_kinds:
            engine.on_message(kind, message.src, message.payload)
        else:
            raise AssertionError(f"orderer got unexpected {kind!r}")

    # ------------------------------------------------------------------
    # Raft mode

    def _accept_envelope(self, envelope: FabricEnvelope) -> None:
        engine = self.engine
        if engine is None:
            # Kafka mode: the broker orders every envelope.
            self.system.broker.publish(("envelope", envelope))
            return
        if not engine.is_leader:
            leader = engine.leader_id
            if leader and leader != self.endpoint_id:
                # Relay to the known leader.
                self.send(leader, "fabric/envelope", envelope, size_bytes=envelope.size_bytes)
            else:
                # No leader known (election in progress): hold briefly
                # and retry, as the real broadcast client reconnects.
                self.sim.schedule(0.1, self._accept_envelope, envelope)
            return
        self.pending.append(envelope)
        if len(self.pending) >= self.system.max_message_count:
            self.cut_block()

    def cut_block(self) -> None:
        """Form a block from pending envelopes and hand it to Raft."""
        assert self.engine is not None
        if not self.pending or not self.engine.is_leader:
            return
        max_count = self.system.max_message_count
        batch, self.pending = self.pending[:max_count], self.pending[max_count:]
        proposal = BlockProposal.cut([e.transaction for e in batch], self.sim.now)
        self.system.hold_rwsets(proposal.proposal_id, batch)
        self.blocks_cut += 1
        self.engine.submit_proposal(proposal)

    def _batch_tick(self, timeout: float) -> None:
        """Drive block cutting every BatchTimeout (``timeout``) seconds.

        Raft mode cuts locally on the leader; Kafka mode publishes a
        time-to-cut marker so all orderers cut at the same log position.
        """
        if self.engine is None:
            if self._kafka_pending:
                self.system.broker.publish(("ttc", self.endpoint_id))
        else:
            self.cut_block()
        self.sim.resume_after(timeout, self._batch_tick, timeout)

    def on_decision(self, decision: Decision) -> None:
        """Raft committed a block: deliver it to this orderer's peers."""
        self._deliver(typing.cast(BlockProposal, decision.proposal), decision.proposer)

    def _deliver(self, proposal: BlockProposal, proposer: str) -> None:
        seq = self.system.note_block(proposal, proposer)
        for peer_id in self.system.peers_of_orderer(self.endpoint_id):
            self.send(
                peer_id,
                "fabric/deliver",
                (seq, proposal, proposer),
                size_bytes=proposal.size_bytes,
            )

    # ------------------------------------------------------------------
    # Kafka mode

    def on_kafka_message(self, offset: int, message: typing.Tuple[str, object]) -> None:
        """Consume one totally ordered broker message.

        Cutting is a pure function of the log, so every orderer cuts the
        identical block sequence with identical deterministic ids. A
        crashed orderer consumes nothing (its cursor stays put); offsets
        ahead of the cursor are buffered so a restart's replay and live
        deliveries interleave without reordering the stream.
        """
        if self.crashed or offset < self._kafka_consumed:
            return
        if offset > self._kafka_consumed:
            self._kafka_future[offset] = message
            return
        self._consume_kafka(offset, message)
        while self._kafka_consumed in self._kafka_future:
            buffered_offset = self._kafka_consumed
            self._consume_kafka(buffered_offset, self._kafka_future.pop(buffered_offset))

    def _consume_kafka(self, offset: int, message: typing.Tuple[str, object]) -> None:
        self._kafka_consumed = offset + 1
        kind, payload = message
        if kind == "envelope":
            if not self._kafka_pending:
                self._kafka_first_offset = offset
            self._kafka_pending.append(typing.cast(FabricEnvelope, payload))
            if len(self._kafka_pending) >= self.system.max_message_count:
                self._kafka_cut(offset)
        elif kind == "ttc":
            # Only the first marker after the last cut triggers; later
            # duplicates from other orderers' timers are no-ops.
            if self._kafka_pending and offset > self._kafka_last_ttc:
                self._kafka_cut(offset)
            self._kafka_last_ttc = offset

    def _kafka_cut(self, offset: int) -> None:
        batch, self._kafka_pending = self._kafka_pending, []
        proposal = BlockProposal.cut(
            [e.transaction for e in batch],
            self.sim.now,
            proposal_id=f"kafka-{self._kafka_first_offset}-{offset}",
        )
        self.system.hold_rwsets(proposal.proposal_id, batch)
        self.blocks_cut += 1
        # The proposer must be deterministic across orderers or the
        # sealed blocks would hash differently on different peers.
        self._deliver(proposal, "ordering-service")


class FabricSystem(SystemModel):
    """A Fabric deployment: peers, orderers, Raft, MVCC validation."""

    name = "fabric"
    stabilization_time = 0.0

    def default_params(self) -> typing.Dict[str, object]:
        return {
            # Table 5: default 500, evaluated {100, 500, 1000, 2000}.
            "MaxMessageCount": 500,
            # Fabric's BatchTimeout; clients observe a block event every
            # second in the paper's runs (Section 5.4).
            "BatchTimeout": 1.0,
            # In-flight endorsement limit per peer.
            "EndorsementBacklog": 30_000,
            # "raft" (the paper's main runs) or "kafka" (Section 5.4's
            # comparison point).
            "OrderingService": "raft",
        }

    def make_node(self, node_id: str) -> FabricPeer:
        return FabricPeer(self, node_id)

    def build(self) -> None:
        service = str(self.params["OrderingService"])
        if service not in ("raft", "kafka"):
            raise ValueError(f"unknown OrderingService {service!r}")
        #: Which ordering backend this deployment runs.
        self.ordering_service = service
        self.max_message_count = int(self.params["MaxMessageCount"])
        self.endorsement_backlog = int(self.params["EndorsementBacklog"])
        self.orderer_ids = [f"{self.name}-orderer{i}" for i in range(ORDERER_COUNT)]
        self.orderers: typing.Dict[str, FabricOrderer] = {}
        self.broker: typing.Optional[KafkaBroker] = None
        for index, orderer_id in enumerate(self.orderer_ids):
            orderer = FabricOrderer(self, orderer_id)
            # Orderers live on servers 1..3 (hosts 0..2), Table 4.
            host = self.server_hosts[index % len(self.server_hosts)]
            self.network.attach(orderer, host)
            self.orderers[orderer_id] = orderer
        if self.ordering_service == "kafka":
            from repro.consensus.kafka import KafkaBroker

            self.broker = KafkaBroker(self.sim, name=f"{self.name}-kafka")
            for orderer in self.orderers.values():
                self.broker.subscribe(orderer.on_kafka_message)
        else:
            for orderer_id, orderer in self.orderers.items():
                context = self.engine_context(
                    orderer_id, self.orderer_ids, orderer.on_decision, f"raft:{orderer_id}"
                )
                orderer.engine = RaftEngine(context)
        self._event_service_broken = self.spec.node_count >= EVENT_SERVICE_PEER_LIMIT
        #: Every distinct block the ordering service delivered, in order.
        #: A restarted peer's deliver stream resumes from here (the
        #: ledger is durable on the orderers).
        self.block_log: typing.List[typing.Tuple[BlockProposal, str]] = []
        self._block_log_index: typing.Dict[str, int] = {}
        #: proposal id -> ``{tx_id: ReadWriteSet}`` of a cut block, from
        #: the cut until the block is final (:meth:`hold_rwsets`).
        self.rwsets: typing.Dict[str, typing.Dict[str, ReadWriteSet]] = {}

    def start(self) -> None:
        self.started = True
        timeout = float(self.params["BatchTimeout"])
        for orderer in self.orderers.values():
            if orderer.engine is not None:
                orderer.engine.start()
            self.sim.schedule(0.0, self.sim.resume_after, timeout, orderer._batch_tick, timeout)

    # ------------------------------------------------------------------
    # Topology helpers

    def note_block(self, proposal: BlockProposal, proposer: str) -> int:
        """Record one delivered block and return its stream sequence
        number (Kafka mode delivers per orderer, so the same block id
        arrives up to three times and keeps its first number)."""
        seq = self._block_log_index.get(proposal.proposal_id)
        if seq is None:
            seq = len(self.block_log)
            self._block_log_index[proposal.proposal_id] = seq
            self.block_log.append((proposal, proposer))
        return seq

    def hold_rwsets(self, proposal_id: str, batch: typing.Sequence[FabricEnvelope]) -> None:
        """Keep the endorsed read/write sets of the block just cut from
        ``batch`` until the block is final, moving each out of its
        envelope (the Kafka broker's log keeps the envelopes).

        The sets serve only the peers' MVCC check. Finality means every
        peer validated the block, so :meth:`_on_final` drops them; a
        crashed peer keeps its missed blocks' sets until it has
        validated them after its restart. Under Kafka every orderer cuts
        every block with the same id from the same envelopes: a cut of a
        block already delivered (:meth:`note_block`) adds nothing.
        """
        if proposal_id in self._block_log_index:
            return
        sets = self.rwsets[proposal_id] = {}
        for envelope in batch:
            sets[envelope.transaction.tx_id] = envelope.rwset
            envelope.rwset = None

    def live_orderer_ids(self) -> typing.List[str]:
        """Orderers currently able to serve deliver streams."""
        return [
            orderer_id
            for orderer_id, orderer in self.orderers.items()
            if not orderer.crashed
            and (orderer.engine is None or not orderer.engine.stopped)
        ]

    def stream_target_for(self, node_id: str) -> typing.Optional[str]:
        """The orderer a peer's broadcast stream should go to right now.

        Prefer the Raft leader, fall back to the peer's home orderer,
        then to any live orderer; ``None`` when the whole ordering
        service is down.
        """
        leader = self.leader_orderer_id()
        if leader is not None and not self.orderers[leader].crashed:
            return leader
        home = self.orderer_of_peer(node_id)
        if not self.orderers[home].crashed:
            return home
        live = self.live_orderer_ids()
        return live[0] if live else None

    def peers_of_orderer(self, orderer_id: str) -> typing.List[str]:
        """The peers this orderer delivers blocks to (round-robin).

        Peers whose orderer crashed reconnect to a live one, so the
        partition is computed over the live set.
        """
        live = self.live_orderer_ids()
        if orderer_id not in live:
            return []
        index = live.index(orderer_id)
        return [
            node_id
            for position, node_id in enumerate(self.node_ids)
            if position % len(live) == index
        ]

    def orderer_of_peer(self, node_id: str) -> str:
        """The orderer a peer forwards envelopes to."""
        position = self.node_ids.index(node_id)
        return self.orderer_ids[position % len(self.orderer_ids)]

    def leader_orderer_id(self) -> typing.Optional[str]:
        """The current Raft leader among the orderers (None during election)."""
        for orderer_id, orderer in self.orderers.items():
            if orderer.engine is not None and orderer.engine.is_leader:
                return orderer_id
        return None

    # ------------------------------------------------------------------
    # Fault lifecycle

    def engine_of(self, endpoint_id: str) -> typing.Optional[object]:
        orderer = self.orderers.get(endpoint_id)
        if orderer is not None:
            return orderer.engine
        return super().engine_of(endpoint_id)

    def leader_id(self) -> typing.Optional[str]:
        """The coordinating endpoint: the Raft leader orderer (Kafka mode
        has no leader; the first live orderer stands in)."""
        if self.ordering_service == "kafka":
            live = self.live_orderer_ids()
            return live[0] if live else None
        return self.leader_orderer_id()

    def _post_crash(self, endpoint_id: str) -> None:
        orderer = self.orderers.get(endpoint_id)
        if orderer is None:
            return
        orderer.crashed = True
        # The crashed orderer's in-memory envelope queue is gone (Kafka
        # mode keeps _kafka_pending: it is recomputed from the durable
        # broker log, which the restart replay re-reads).
        orderer.pending.clear()
        # Peers' broadcast streams into the dead orderer break; they
        # reconnect to a live one, losing unacked envelopes.
        for node in self.nodes.values():
            typing.cast(FabricPeer, node).reset_stream()

    def _post_restart(self, endpoint_id: str) -> None:
        orderer = self.orderers.get(endpoint_id)
        if orderer is not None:
            orderer.crashed = False
            if self.broker is not None:
                # Resume consuming the broker log from the crash point.
                self.broker.replay(orderer._kafka_consumed, orderer.on_kafka_message)
            return
        peer = typing.cast(FabricPeer, self.nodes.get(endpoint_id))
        if peer is not None:
            # The deliver stream resumes from the ledger: blocks the peer
            # missed while down are re-offered (duplicates are filtered).
            for seq, (proposal, proposer) in enumerate(self.block_log):
                peer.enqueue_block(seq, proposal, proposer)

    # ------------------------------------------------------------------
    # Submission path

    def handle_submit(self, peer: FabricPeer, message: Message) -> None:
        transaction: Transaction = message.payload
        if peer.in_flight >= self.endorsement_backlog:
            peer.reject_client(
                message.src,
                [p.payload_id for p in transaction.payloads],
                "endorsement backlog full",
            )
            return
        self.remember_owner(transaction.payloads)
        peer.in_flight += 1
        peer.start_job(
            peer.endorsement_cost(transaction), self._endorse_and_forward, peer, transaction
        )

    def _endorse_and_forward(self, peer: FabricPeer, transaction: Transaction) -> None:
        envelope = peer.endorse(transaction)
        peer.in_flight -= 1
        peer.forward_envelope(envelope)

    def handle_node_message(self, peer: FabricPeer, message: Message) -> None:
        kind = message.kind
        if kind == "fabric/envelope_ack":
            peer.on_stream_ack()
        elif kind == "fabric/deliver":
            seq, proposal, proposer = message.payload
            peer.enqueue_block(seq, proposal, proposer)
        else:
            super().handle_node_message(peer, message)

    # ------------------------------------------------------------------
    # Finality; the >=16-peer event-service failure (Section 5.8.2)

    def _on_final(self, key: str, commit_time: float) -> None:
        # Every peer has validated the block: its sets have no reader left.
        self.rwsets.pop(key, None)
        if self._event_service_broken:
            outcome = self._pending_final.pop(key, None)
            self._pending_height.pop(key, None)
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.end(("finality", self.name, key), at=commit_time, notified=False)
            if outcome:
                gateway_ids = set(self.subscriptions.values())
                for gateway_id in gateway_ids:
                    self.nodes[gateway_id].dropped_notifications += len(outcome)
            return
        super()._on_final(key, commit_time)
