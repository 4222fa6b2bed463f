"""Hyperledger Sawtooth — PBFT consensus, atomic batches, backpressure.

The model follows the architecture the paper exercises (Section 5.6):

* Clients submit atomic *batches* of 1..100 transactions; if one
  transaction fails, the whole batch is rejected and none of it reaches
  a block.
* Every validator keeps a bounded pending queue; when it is too full,
  new batches are rejected outright and must be re-sent — the dominant
  source of the paper's lost transactions.
* Batches gossip to all validators, and each validator pays admission
  work per payload. Under very high load this admission work starves
  the publisher, which is why Sawtooth's throughput *drops* as the rate
  limiter rises (66.7 MTPS at RL=200 vs ~14 at RL=1600).
* The PBFT primary publishes a block every
  ``sawtooth.consensus.pbft.block_publishing_delay`` seconds; building a
  block requires executing its batches (the state root goes into the
  block header), and the other validators re-execute on commit.

Known behaviour reproduced by an explicit mechanism: with 16 or more
validators the paper finds all benchmarks fail with every transaction
stuck pending on the nodes (Section 5.8.2); the model freezes block
publishing at that size.
"""

from __future__ import annotations

import collections
import typing

from repro.chains.base import BaseNode, BlockProposal, ReplicaNode, SystemModel
from repro.consensus.pbft import PbftEngine
from repro.net import Message
from repro.storage import Batch, Transaction, TxStatus

#: Validator count at which the paper observes every transaction stuck in
#: the pending state (Section 5.8.2).
SCALE_STALL_NODE_LIMIT = 16

#: Maximum transactions the candidate block accumulates before the
#: executor pauses (blocks are "never saturated" in the paper; the cap
#: exists only as a runaway guard and is never the binding constraint).
MAX_CANDIDATE_TRANSACTIONS = 5000

#: Per-batch handling overhead (transaction-processor round trips,
#: signature checks): the reason one-transaction batches top out near
#: 27 batches/s while 100-transaction batches reach ~100 payloads/s.
BATCH_OVERHEAD = 0.0255


class SawtoothValidator(ReplicaNode):
    """One Sawtooth validator."""

    def __init__(self, system: "SawtoothSystem", node_id: str) -> None:
        super().__init__(system, node_id)
        self.queue_rejections = 0
        #: Executed-but-unpublished transactions (the candidate block).
        self.candidate_txs: typing.List[Transaction] = []
        self.candidate_outcome: typing.Dict[str, typing.Tuple[TxStatus, str]] = {}

    def commit_block(self, proposal: BlockProposal, proposer: str) -> None:
        # The builder already executed during publishing, and staged
        # finality when it published; every other validator re-executes
        # to verify the state root.
        if proposer != self.endpoint_id:
            self.cpu.hold(self.block_cost(proposal), self._verify_block, proposal, proposer)
        else:
            self._append_block(proposal, proposer)

    def _verify_block(self, proposal: BlockProposal, proposer: str) -> None:
        self.apply_payloads(proposal)
        self._append_block(proposal, proposer)

    def _append_block(self, proposal: BlockProposal, proposer: str) -> None:
        self.seal_and_append(proposal, proposer)
        self.system.record_commit(proposal.proposal_id, self.endpoint_id)
        self.block_committed(proposal)


class SawtoothSystem(SystemModel):
    """A Sawtooth deployment (Table 4: four validators)."""

    name = "sawtooth"
    #: Section 4.4: Sawtooth needs 60 s to stabilise after start.
    stabilization_time = 60.0

    def default_params(self) -> typing.Dict[str, object]:
        return {
            # Table 6: block_publishing_delay, default 1 s, used {1,2,5,10}.
            "block_publishing_delay": 1.0,
            # Pending-queue capacity in batches (backpressure threshold).
            "PendingQueueCapacity": 25,
        }

    def make_node(self, node_id: str) -> SawtoothValidator:
        return SawtoothValidator(self, node_id)

    def build(self) -> None:
        #: Shared (fully gossiped) pending batch queue.
        self.pending: typing.Deque[Batch] = collections.deque()
        self._scale_stalled = self.spec.node_count >= SCALE_STALL_NODE_LIMIT
        self.discarded_batches = 0
        for node_id, node in self.nodes.items():
            validator = typing.cast(SawtoothValidator, node)
            context = self.engine_context(
                node_id, self.node_ids, validator.enqueue_commit, f"pbft:{node_id}"
            )
            validator.engine = PbftEngine(context, progress_timeout=10.0)

    def start(self) -> None:
        self.started = True
        delay = float(self.params["block_publishing_delay"])
        for node in self.nodes.values():
            validator = typing.cast(SawtoothValidator, node)
            self.sim.schedule(0.0, self._execute_next, validator)
            self.sim.schedule(0.0, self.sim.resume_after, delay, self._publish, validator, delay)

    def _execute_next(self, validator: SawtoothValidator) -> None:
        """The primary's batch pipeline: execute pending batches one at a
        time into the candidate block (the state root must be known
        before publishing, so execution gates block content)."""
        engine = validator.engine
        assert engine is not None
        if (
            self._scale_stalled
            or not engine.is_primary
            or not self.pending
            or len(validator.candidate_txs) >= MAX_CANDIDATE_TRANSACTIONS
        ):
            self.sim.resume_after(0.05, self._execute_next, validator)
            return
        batch = self.pending.popleft()
        validator.cpu.hold(
            BATCH_OVERHEAD + validator.execution_time(batch.transactions),
            self._batch_executed, validator, batch,
        )

    def _batch_executed(self, validator: SawtoothValidator, batch: Batch) -> None:
        ok, outcome = validator.try_apply_batch(batch.transactions)
        if ok:
            validator.candidate_txs.extend(batch.transactions)
            validator.candidate_outcome.update(outcome)
        else:
            # Atomic batch: nothing from it enters a block, and the
            # clients are never notified (lost transactions).
            self.discarded_batches += 1
        self._execute_next(validator)

    def _publish(self, validator: SawtoothValidator, delay: float) -> None:
        """Publish the candidate block every block_publishing_delay."""
        engine = validator.engine
        assert engine is not None
        if self._scale_stalled:
            pass  # Section 5.8.2: everything stays pending
        elif not engine.is_primary:
            if self.pending:
                engine.note_pending_work()
        elif validator.candidate_txs:
            proposal = BlockProposal.cut(validator.candidate_txs, self.sim.now)
            self.stage_finality(proposal.proposal_id, dict(validator.candidate_outcome), None)
            validator.candidate_txs = []
            validator.candidate_outcome = {}
            validator.cpu.hold(
                self.profile.block_overhead, self._published, validator, delay, proposal
            )
            return
        self.sim.resume_after(delay, self._publish, validator, delay)

    def _published(
        self, validator: SawtoothValidator, delay: float, proposal: BlockProposal
    ) -> None:
        typing.cast(PbftEngine, validator.engine).submit_proposal(proposal)
        self.sim.resume_after(delay, self._publish, validator, delay)

    # ------------------------------------------------------------------
    # Message routing and submission

    def handle_node_message(self, node: BaseNode, message: Message) -> None:
        if message.kind == "sawtooth/gossip":
            batch = typing.cast(Batch, message.payload)
            node.start_job(
                self.profile.admission_cost * batch.payload_count, self._gossip_charged, node
            )
        else:
            super().handle_node_message(node, message)

    def _gossip_charged(self, node: BaseNode) -> None:
        # A gossiped batch sits in this validator's own queue: if the
        # primary orders nothing within the progress timeout (dead or
        # unreachable primary), this backup votes a view change. The
        # shared pending deque can't signal this — an isolated primary
        # keeps draining it, leaving the backups none the wiser.
        engine = typing.cast(SawtoothValidator, node).engine
        if engine is not None and not engine.stopped and not engine.is_primary:
            # Only under fault injection: with a slow block publishing
            # delay the backups' timers would otherwise fire on healthy
            # queued work and thrash the view, perturbing the calibrated
            # fault-free schedules.
            if self.fault_mode and not self._scale_stalled:
                engine.note_pending_work()

    def handle_submit(self, node: BaseNode, message: Message) -> None:
        batch = typing.cast(Batch, message.payload)
        self.sim.schedule(0.0, self._admit, node, message.src, batch)

    def _admit(self, node: BaseNode, client_id: str, batch: Batch) -> None:
        # Deserialisation/signature work happens before the backpressure
        # decision, and the batch has already gossiped by then — so every
        # validator pays admission CPU for every *offered* payload. This
        # contention is what collapses Sawtooth's throughput at high rate
        # limiters (Section 5.6: 66.7 MTPS at RL=200 vs ~14 at RL=1600).
        self.network.broadcast(
            node.endpoint_id, self.node_ids, "sawtooth/gossip", batch,
            size_bytes=batch.size_bytes,
        )
        node.cpu.hold(
            self.profile.admission_cost * batch.payload_count,
            self._admitted, node, client_id, batch,
        )

    def _admitted(self, node: BaseNode, client_id: str, batch: Batch) -> None:
        validator = typing.cast(SawtoothValidator, node)
        capacity = int(self.params["PendingQueueCapacity"])
        if len(self.pending) >= capacity:
            validator.queue_rejections += 1
            payload_ids = [
                p.payload_id for tx in batch.transactions for p in tx.payloads
            ]
            node.reject_client(client_id, payload_ids, "pending queue full")
            return
        for tx in batch.transactions:
            self.remember_owner(tx.payloads)
        self.pending.append(batch)
