"""ConsenSys Quorum — Ethereum's account model with Istanbul BFT.

Order-execute (Section 5.5): transactions enter a bounded, fully
gossiped transaction pool; every ``istanbul.blockperiod`` seconds the
rotating IBFT proposer selects transactions from the pool into a block,
the validators run the three-phase IBFT instance, and each validator
executes the block's payloads against its world state on commit.

The paper's headline Quorum finding emerges from the model rather than
being scripted: the proposer's transaction-selection work grows with the
pool depth, and once selecting takes longer than the block period the
proposer ships *empty* blocks while the pool keeps growing — the
permanent liveness failure observed for ``blockperiod <= 2 s`` combined
with a high rate limiter (empty blocks, zero received transactions).
"""

from __future__ import annotations

import collections
import typing

from repro.chains.base import BaseNode, BlockProposal, ReplicaNode, SystemModel
from repro.consensus.ibft import IbftEngine
from repro.net import Message
from repro.storage import Transaction

#: Seconds of proposer CPU per pooled transaction scanned during block
#: assembly (go-ethereum's pending-sorting path).
TX_SELECTION_COST = 0.0009

#: Fraction of the block period available for executing a block's payloads.
EXECUTION_BUDGET_FRACTION = 0.5

#: Fixed per-block work (assembly, sealing, IBFT bookkeeping) that comes
#: out of the execution budget — why small block periods have sharply
#: lower capacity.
BLOCK_FIXED_OVERHEAD = 0.3

#: Per-consensus-message handling time; IBFT exchanges ~3n messages per
#: validator per block, so capacity falls as validators are added
#: (Section 5.8.2's downward trend).
IBFT_MESSAGE_COST = 0.005


class QuorumSystem(SystemModel):
    """A Quorum deployment (Table 4: four validators, nothing else)."""

    name = "quorum"
    engine_prefixes = ("ibft",)
    #: Section 4.4: Quorum needs 180 s to stabilise after start.
    stabilization_time = 180.0

    def default_params(self) -> typing.Dict[str, object]:
        return {
            # Table 6: istanbul.blockperiod, default 1 s, used {1,2,5,10}.
            "istanbul.blockperiod": 1.0,
            # go-ethereum txpool: 4096 executable-slot default.
            "TxPoolCapacity": 4096,
        }

    def make_node(self, node_id: str) -> ReplicaNode:
        return ReplicaNode(self, node_id)

    def build(self) -> None:
        #: The fully gossiped transaction pool (FIFO of Transaction).
        self.txpool: typing.Deque[Transaction] = collections.deque()
        self.pool_rejections = 0
        self.stalled_proposals = 0
        self._stall_latched = False
        for node_id, node in self.nodes.items():
            validator = typing.cast(ReplicaNode, node)
            context = self.engine_context(
                node_id, self.node_ids, validator.enqueue_commit, f"ibft:{node_id}"
            )
            validator.engine = IbftEngine(
                context,
                proposal_factory=lambda height, me=node_id: self._make_proposal(me),
                round_timeout=max(10.0, 2.0 * float(self.params["istanbul.blockperiod"])),
            )

    def start(self) -> None:
        self.started = True
        period = float(self.params["istanbul.blockperiod"])
        for node in self.nodes.values():
            validator = typing.cast(ReplicaNode, node)
            assert validator.engine is not None
            validator.engine.start()
            self.sim.schedule(
                0.0, self.sim.resume_after, period, self._tick, validator.engine, period
            )

    def _tick(self, engine: IbftEngine, period: float) -> None:
        """The block-period ticker: let the proposer propose, every period."""
        engine.maybe_propose()
        self.sim.resume_after(period, self._tick, engine, period)

    # ------------------------------------------------------------------
    # Block assembly

    def _make_proposal(self, proposer_id: str) -> BlockProposal:
        """The IBFT proposer's block-assembly path.

        Returns an empty proposal when transaction selection cannot
        finish within the block period — and once that happens the pool
        processing never recovers (the paper's Section 5.5: transactions
        keep queueing but "the queue is no longer processed"), so the
        stall latches.
        """
        period = float(self.params["istanbul.blockperiod"])
        selection_time = TX_SELECTION_COST * len(self.txpool)
        if self._stall_latched or selection_time > period:
            self._stall_latched = True
            self.stalled_proposals += 1
            return BlockProposal.cut([], self.sim.now)
        node = self.nodes[proposer_id]
        consensus_overhead = IBFT_MESSAGE_COST * 3 * self.spec.node_count
        budget = max(
            0.0,
            period * EXECUTION_BUDGET_FRACTION - BLOCK_FIXED_OVERHEAD - consensus_overhead,
        )
        selected: typing.List[Transaction] = []
        spent = 0.0
        while self.txpool:
            tx = self.txpool[0]
            cost = node.profile.per_tx_overhead + sum(
                node.execute_cost_of(p) for p in tx.payloads
            )
            if spent + cost > budget:
                break
            self.txpool.popleft()
            selected.append(tx)
            spent += cost
        return BlockProposal.cut(selected, self.sim.now)

    # ------------------------------------------------------------------
    # Message routing and submission

    def handle_submit(self, node: BaseNode, message: Message) -> None:
        transaction = typing.cast(Transaction, message.payload)
        node.start_job(
            self.profile.admission_cost * len(transaction.payloads),
            self._admit, node, message.src, transaction,
        )

    def _admit(self, node: BaseNode, client_id: str, transaction: Transaction) -> None:
        capacity = int(self.params["TxPoolCapacity"])
        if len(self.txpool) >= capacity:
            self.pool_rejections += 1
            node.reject_client(
                client_id, [p.payload_id for p in transaction.payloads], "txpool full"
            )
            return
        self.remember_owner(transaction.payloads)
        self.txpool.append(transaction)
