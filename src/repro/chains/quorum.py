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

from repro.chains.base import BaseNode, BlockProposal, SystemModel
from repro.consensus.base import Decision, EngineContext
from repro.consensus.ibft import IbftEngine
from repro.net import Message
from repro.sim.stores import Store
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


class QuorumValidator(BaseNode):
    """One Quorum validator node."""

    def __init__(self, system: "QuorumSystem", node_id: str) -> None:
        super().__init__(system, node_id)
        self.engine: typing.Optional[IbftEngine] = None
        self._commit_queue: Store = Store(self.sim, name=f"{node_id}-commits")
        self.empty_blocks = 0
        self.sim.spawn(self._commit_loop(), name=f"{node_id}-committer")

    def enqueue_commit(self, decision: Decision) -> None:
        """IBFT decided a block; queue it for execution."""
        self._commit_queue.try_put(decision)

    def _commit_loop(self) -> typing.Generator:
        system = typing.cast("QuorumSystem", self.system)
        while True:
            decision = yield self._commit_queue.get()
            proposal = typing.cast(BlockProposal, decision.proposal)
            if proposal.is_empty:
                self.empty_blocks += 1
                self.seal_and_append(proposal, decision.proposer)
                continue
            yield from self.busy(
                self.profile.block_overhead + proposal.execution_time(self)
            )
            outcome = self.apply_payloads(proposal)
            self.seal_and_append(proposal, decision.proposer)
            system.stage_finality(proposal.proposal_id, outcome, self.chain.height)
            system.record_commit(proposal.proposal_id, self.endpoint_id)


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

    def make_node(self, node_id: str) -> QuorumValidator:
        return QuorumValidator(self, node_id)

    def build(self) -> None:
        #: The fully gossiped transaction pool (FIFO of Transaction).
        self.txpool: typing.Deque[Transaction] = collections.deque()
        self.pool_rejections = 0
        self.stalled_proposals = 0
        self._stall_latched = False
        for node_id, node in self.nodes.items():
            validator = typing.cast(QuorumValidator, node)
            context = EngineContext(
                sim=self.sim,
                replica_id=node_id,
                peers=self.node_ids,
                send_fn=lambda dst, kind, payload, size, src=node_id: self.network.send(
                    Message(src, dst, kind, payload, size)
                ),
                broadcast_fn=lambda kind, payload, size, src=node_id: self.network.broadcast(
                    src, self.node_ids, kind, payload, size
                ),
                decide_fn=validator.enqueue_commit,
                rng=self.sim.rng.stream(f"ibft:{node_id}"),
            )
            validator.engine = IbftEngine(
                context,
                proposal_factory=lambda height, me=node_id: self._make_proposal(me),
                round_timeout=max(10.0, 2.0 * float(self.params["istanbul.blockperiod"])),
            )

    def start(self) -> None:
        self.started = True
        for node in self.nodes.values():
            validator = typing.cast(QuorumValidator, node)
            assert validator.engine is not None
            validator.engine.start()
            self.sim.spawn(
                self._blockperiod_ticker(validator), name=f"{node.endpoint_id}-ticker"
            )

    def leader_id(self) -> typing.Optional[str]:
        """The proposer of the current (height, round), as the first live
        validator sees it."""
        for node in self.nodes.values():
            engine = typing.cast(QuorumValidator, node).engine
            if engine is not None and not engine.stopped:
                return engine.proposer_for(engine.height, engine.round)
        return None

    def _blockperiod_ticker(self, validator: QuorumValidator) -> typing.Generator:
        period = float(self.params["istanbul.blockperiod"])
        while True:
            yield self.sim.timeout(period)
            assert validator.engine is not None
            validator.engine.maybe_propose()

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

    def route_engine_message(self, node: BaseNode, message: Message) -> None:
        engine = typing.cast(QuorumValidator, node).engine
        assert engine is not None
        engine.on_message(message.kind, message.src, message.payload)

    def handle_submit(self, node: BaseNode, message: Message) -> None:
        transaction = typing.cast(Transaction, message.payload)
        self.sim.spawn(self._admit(node, message.src, transaction))

    def _admit(self, node: BaseNode, client_id: str, transaction: Transaction) -> typing.Generator:
        yield from node.busy(self.profile.admission_cost * len(transaction.payloads))
        capacity = int(self.params["TxPoolCapacity"])
        if len(self.txpool) >= capacity:
            self.pool_rejections += 1
            node.reject_client(
                client_id, [p.payload_id for p in transaction.payloads], "txpool full"
            )
            return
        self.remember_owner(transaction.payloads)
        self.txpool.append(transaction)
