"""BitShares — Graphene's DPoS with multi-operation transactions.

Witnesses (n - 1 of the nodes, Table 4) take turns producing a block
every ``block_interval`` seconds. A transaction carries 1..100
*operations* (the paper counts each operation as a transaction in the
MTPS metric, Section 4.5) and is atomic: one failing operation discards
the whole transaction.

The serialisability behaviour of Section 5.3 comes from the scheduling
rule modelled here: while assembling a block, the witness walks the
pending queue in order and defers any transaction whose accounts
intersect the accounts touched by transactions already *examined* in
this round ("BitShares does not include interacting operations or
transactions in a block"). With the BankingApp-SendPayment workload —
payments chained account_n -> account_{n+1} — this admits roughly one
transaction per workload thread per block, clogging the pending queue:
throughput collapses, the experiment outlasts its send window, and the
follow-up Balance benchmark finds the queue still full (the paper's
"almost exclusively lost transactions").
"""

from __future__ import annotations

import collections
import typing

from repro.chains.base import BlockProposal, ReplicaNode, SystemModel
from repro.consensus.dpos import DposEngine
from repro.storage import Transaction

#: Fraction of the block interval budgeted for applying transactions.
EXECUTION_BUDGET_FRACTION = 0.9

#: Pending transactions expire after this long without inclusion
#: (Graphene's transaction expiration).
PENDING_EXPIRATION = 60.0


def accounts_touched(transaction: Transaction) -> typing.Set[str]:
    """The accounts a transaction's operations write to."""
    touched: typing.Set[str] = set()
    for payload in transaction.payloads:
        if payload.function == "SendPayment":
            touched.add(str(payload.arg("source")))
            touched.add(str(payload.arg("destination")))
    return touched


def has_interacting_operations(transaction: Transaction) -> bool:
    """Whether two operations inside the transaction touch one account.

    Chained payments packed into one atomic transaction interact with
    each other (payment n's destination is payment n+1's source); the
    paper observes that such transactions are discarded wholesale
    (Section 5.3: one failing operation discards the transaction, and
    interacting operations are not included in a block).
    """
    seen: typing.Set[str] = set()
    for payload in transaction.payloads:
        if payload.function != "SendPayment":
            continue
        accounts = {str(payload.arg("source")), str(payload.arg("destination"))}
        if accounts & seen:
            return True
        seen |= accounts
    return False


class BitSharesSystem(SystemModel):
    """A BitShares deployment (Table 4: n nodes, n-1 witnesses)."""

    name = "bitshares"
    #: Section 4.4: BitShares needs 180 s to stabilise after start.
    stabilization_time = 180.0
    pool_capacity_param = "PendingPoolCapacity"
    pool_full_reason = "pending pool full"

    def default_params(self) -> typing.Dict[str, object]:
        return {
            # Table 6: block_interval, default 5 s, used {1, 2, 5, 10}.
            "block_interval": 5.0,
            # Pending pool capacity in payloads (maximum_transaction_size
            # analogue; keeps the SendPayment clog from growing unbounded).
            "PendingPoolCapacity": 60_000,
        }

    def make_node(self, node_id: str) -> ReplicaNode:
        return ReplicaNode(self, node_id)

    def build(self) -> None:
        #: Shared pending queue of (transaction, admitted_at).
        self.pending: typing.Deque[typing.Tuple[Transaction, float]] = collections.deque()
        self.pending_payloads = 0
        self.pool_rejections = 0
        self.expired_transactions = 0
        self.deferred_inclusions = 0
        self.deferred_interacting = 0
        witness_ids = self.node_ids[: max(1, self.spec.node_count - 1)]
        interval = float(self.params["block_interval"])
        for node_id, node in self.nodes.items():
            replica = typing.cast(ReplicaNode, node)
            context = self.engine_context(
                node_id, self.node_ids, replica.enqueue_commit, f"dpos:{node_id}"
            )
            replica.engine = DposEngine(
                context,
                witnesses=witness_ids,
                block_interval=interval,
                proposal_factory=lambda slot, me=node_id: self._produce_block(me),
            )

    def start(self) -> None:
        self.started = True
        for node in self.nodes.values():
            engine = typing.cast(ReplicaNode, node).engine
            assert engine is not None
            engine.start()

    # ------------------------------------------------------------------
    # Block production

    def _produce_block(self, witness_id: str) -> typing.Optional[BlockProposal]:
        """The scheduled witness assembles its block from the pending queue."""
        self._expire_pending()
        if not self.pending:
            return None
        profile = self.nodes[witness_id].profile
        per_tx_overhead = profile.per_tx_overhead
        cost_for = profile.execute_cost_for
        interval = float(self.params["block_interval"])
        budget = interval * EXECUTION_BUDGET_FRACTION
        selected: typing.List[Transaction] = []
        deferred: typing.List[typing.Tuple[Transaction, float]] = []
        touched: typing.Set[str] = set()
        spent = 0.0
        while self.pending:
            tx, admitted_at = self.pending.popleft()
            # Examining a pending transaction means (re-)applying it to
            # pending state, so every examined transaction — kept or
            # deferred — consumes the block's execution budget. A pool
            # clogged with interacting transactions therefore starves
            # later benchmarks of the unit (the paper's failing
            # BankingApp-Balance after SendPayment, Section 5.3).
            cost = per_tx_overhead + sum(cost_for(p.function) for p in tx.payloads)
            if spent + cost > budget:
                deferred.append((tx, admitted_at))
                break
            spent += cost
            accounts = accounts_touched(tx)
            if has_interacting_operations(tx):
                # Operations inside the transaction interact with each
                # other: it can never apply, and keeps being retried
                # until it expires.
                self.deferred_interacting += 1
                deferred.append((tx, admitted_at))
                continue
            if accounts & touched:
                # Interacts with an earlier pending transaction of this
                # round: deferred, but its accounts still taint the round.
                touched |= accounts
                deferred.append((tx, admitted_at))
                self.deferred_inclusions += 1
                continue
            touched |= accounts
            selected.append(tx)
        # Deferred transactions return to the front, preserving order.
        for item in reversed(deferred):
            self.pending.appendleft(item)
        self.pending_payloads -= sum(len(tx.payloads) for tx in selected)
        if not selected:
            return None
        return BlockProposal.cut(selected, self.sim.now)

    def _expire_pending(self) -> None:
        """Drop pending transactions older than the expiration window."""
        now = self.sim.now
        while self.pending and now - self.pending[0][1] > PENDING_EXPIRATION:
            tx, __ = self.pending.popleft()
            self.pending_payloads -= len(tx.payloads)
            self.expired_transactions += 1

    # ------------------------------------------------------------------
    # Pooled admission (SystemModel.handle_submit)

    def pool_full(self, transaction: Transaction, capacity: int) -> bool:
        # Capacity counts payloads (operations), not transactions.
        return self.pending_payloads + len(transaction.payloads) > capacity

    def pool_add(self, transaction: Transaction) -> None:
        self.pending.append((transaction, self.sim.now))
        self.pending_payloads += len(transaction.payloads)
