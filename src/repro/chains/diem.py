"""Diem (formerly Libra) — DiemBFT rounds over a deep shared mempool.

The model reproduces the Section 5.7 behaviour:

* Transactions enter a bounded, gossiped mempool; they stay there until
  committed (dedup by id), so under load the pool pins at capacity and
  admissions are rejected — the paper's large lost-transaction counts.
* The rotating DiemBFT leader pulls up to ``max_block_size`` uncommitted
  transactions per round; commits go through the two-chain rule and each
  validator executes committed blocks serially. Execution plus a heavy
  per-block commit/state-sync overhead caps end-to-end throughput near
  100 payloads/s, and makes small ``max_block_size`` values distinctly
  slower (Table 19: BS=100 underperforms BS=2000).
* Validators "spike": they periodically pause processing (Balster [40]);
  during a pause the paused validator proposes nothing and executes
  nothing, so blocks are not saturated even when the pool is full.
"""

from __future__ import annotations

import collections
import random
import typing

from repro.chains.base import BlockProposal, ReplicaNode, SystemModel
from repro.consensus.diembft import DiemBftEngine
from repro.storage import Transaction

#: Pacing between chained rounds.
ROUND_INTERVAL = 0.25

#: Heavy per-block commit overhead (executor + state sync + certificates);
#: the reason small max_block_size hurts throughput.
PER_BLOCK_COMMIT_OVERHEAD = 1.9

#: Additional commit overhead per validator beyond the base four
#: (certificate verification and sync fan-out grow with the validator
#: set), producing Section 5.8.2's downward trend.
PER_VALIDATOR_COMMIT_OVERHEAD = 0.08


def commit_overhead(node_count: int) -> float:
    """Per-block commit/state-sync overhead for a validator-set size."""
    extra = max(0, node_count - 4)
    return PER_BLOCK_COMMIT_OVERHEAD * (1.0 + PER_VALIDATOR_COMMIT_OVERHEAD * extra)


class DiemValidator(ReplicaNode):
    """One Diem validator."""

    def __init__(self, system: "DiemSystem", node_id: str) -> None:
        super().__init__(system, node_id)
        self.spiking_until = 0.0
        self.spike_count = 0
        if system.profile.spike_interval > 0:
            self.sim.schedule(0.0, self._start_spikes)

    @property
    def is_spiking(self) -> bool:
        """Whether the validator is inside a processing pause."""
        return self.sim.now < self.spiking_until

    def _start_spikes(self) -> None:
        rng = self.sim.rng.stream(f"spike:{self.endpoint_id}")
        self.sim.resume_after(rng.expovariate(1.0 / self.profile.spike_interval), self._spike, rng)

    def _spike(self, rng: random.Random) -> None:
        """Pause processing for a while, then wait for the next spike."""
        duration = self.profile.spike_duration
        self.spiking_until = self.sim.now + rng.uniform(0.5 * duration, 1.5 * duration)
        self.spike_count += 1
        self.sim.resume_after(rng.expovariate(1.0 / self.profile.spike_interval), self._spike, rng)

    def block_cost(self, proposal: BlockProposal) -> float:
        return commit_overhead(self.system.spec.node_count) + proposal.execution_time(self)

    def commit_block(self, proposal: BlockProposal, proposer: str) -> None:
        if self.is_spiking:
            # Execution stalls until the pause ends.
            self.sim.resume_after(
                self.spiking_until - self.sim.now, super().commit_block, proposal, proposer
            )
        else:
            super().commit_block(proposal, proposer)

    def block_committed(self, proposal: BlockProposal) -> None:
        typing.cast("DiemSystem", self.system).release_committed(proposal)
        super().block_committed(proposal)


class DiemSystem(SystemModel):
    """A Diem deployment (Table 4: four validators)."""

    name = "diem"
    stabilization_time = 0.0
    pool_capacity_param = "MempoolCapacity"
    pool_full_reason = "mempool full"

    def default_params(self) -> typing.Dict[str, object]:
        return {
            # Table 5: max_block_size, default 3000, used {100,500,1000,2000}.
            "max_block_size": 3000,
            # Shared mempool capacity in transactions.
            "MempoolCapacity": 9_000,
        }

    def make_node(self, node_id: str) -> DiemValidator:
        return DiemValidator(self, node_id)

    def build(self) -> None:
        #: Shared mempool: transactions stay until committed.
        self.mempool: "collections.OrderedDict[str, Transaction]" = collections.OrderedDict()
        self._in_flight: typing.Set[str] = set()
        self.pool_rejections = 0
        for node_id, node in self.nodes.items():
            validator = typing.cast(DiemValidator, node)
            context = self.engine_context(
                node_id, self.node_ids, validator.enqueue_commit, f"diembft:{node_id}"
            )
            validator.engine = DiemBftEngine(
                context,
                proposal_factory=lambda round_number, me=node_id: self._make_proposal(me),
                round_interval=ROUND_INTERVAL,
                round_timeout=5.0,
            )

    def start(self) -> None:
        self.started = True
        for node in self.nodes.values():
            engine = typing.cast(DiemValidator, node).engine
            assert engine is not None
            engine.start()

    # ------------------------------------------------------------------
    # Block assembly

    def _make_proposal(self, leader_id: str) -> typing.Optional[BlockProposal]:
        """The round leader pulls uncommitted transactions from the pool."""
        validator = typing.cast(DiemValidator, self.nodes[leader_id])
        if validator.is_spiking:
            return None  # paused validators propose NIL rounds
        if len(validator._commit_queue) >= 2:
            # Execution backpressure: the proposal generator stops
            # filling blocks while the executor is behind, letting the
            # pool accumulate into larger blocks.
            return None
        max_block = int(self.params["max_block_size"])
        selected: typing.List[Transaction] = []
        for tx_id, tx in self.mempool.items():
            if tx_id in self._in_flight:
                continue
            selected.append(tx)
            if len(selected) >= max_block:
                break
        if not selected:
            return None
        for tx in selected:
            self._in_flight.add(tx.tx_id)
        return BlockProposal.cut(selected, self.sim.now)

    def release_committed(self, proposal: BlockProposal) -> None:
        """Remove committed transactions from the mempool."""
        for tx in proposal.transactions:
            self.mempool.pop(tx.tx_id, None)
            self._in_flight.discard(tx.tx_id)

    # ------------------------------------------------------------------
    # Pooled admission (SystemModel.handle_submit)

    def pool_full(self, transaction: Transaction, capacity: int) -> bool:
        return len(self.mempool) >= capacity

    def pool_add(self, transaction: Transaction) -> None:
        self.mempool[transaction.tx_id] = transaction
