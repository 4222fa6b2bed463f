"""Calibrated per-system performance profiles.

The paper measures real binaries on AMD Ryzen 7 3700X servers; we replace
the binaries with protocol models, so each system's *service times* must
come from somewhere. This module is that somewhere — one reviewable place
holding every calibration constant, fitted so that the model's operating
points land near the paper's reported numbers (Sections 5.1–5.7 and the
Figure 4 grid). All times are seconds; costs are per payload unless noted.

Fitting anchors (paper values the constants were tuned against):

==============  =====================================================
System          Anchors
==============  =====================================================
Corda OS        KV-Set: 4.08 MTPS @ RL20, 1.04 @ RL160 (overload
                degradation); KV-Get fails completely (vault scans).
Corda Ent.      KV-Set: ~13 MTPS flat across RL; DoNothing/Create up
                to 64.6; Get slow but nonzero (3.09 in Fig. 4).
BitShares       DoNothing 1599.9 MTPS @ RL1600/BI1 (100 ops/tx, no
                loss); ~590 ceiling @ 1 op/tx; SendPayment conflicts.
Fabric          1285-1461 MTPS ceiling; 801.4 @ RL800 with MFLS
                0.22 s; event loss at RL1600; blocks every second.
Quorum          DoNothing 773.6; others 235-365; MFLS 9.7-16.1 s @
                BP5; total stall at BP<=2 under RL400.
Sawtooth        103.5 MTPS best (100 tx/batch); 26-35 @ 1 tx/batch;
                queue-full rejections dominate losses; RL1600
                degrades to ~14-16 MTPS.
Diem            50-96 MTPS; MFLS 93-145 s (deep mempool); heavy
                losses; "spiking" validator pauses.
==============  =====================================================
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class PerformanceProfile:
    """Service times and capacities of one system's node implementation."""

    system: str

    #: CPU time to admit one client submission into the pending pool
    #: (deserialisation, signature check, mempool insert).
    admission_cost: float = 0.0002

    #: CPU time to execute one payload, before IEL multipliers.
    execute_cost: float = 0.001

    #: Per-transaction (envelope) overhead during block assembly/validation.
    per_tx_overhead: float = 0.0

    #: Fixed CPU time to assemble or validate one block.
    block_overhead: float = 0.002

    #: CPU time to emit one payload's event notification to a client.
    event_emit_cost: float = 0.0002

    #: Pending pool capacity in payloads (None = unbounded).
    mempool_capacity: typing.Optional[int] = None

    #: Event-delivery backlog (payloads) beyond which notifications drop.
    event_queue_capacity: typing.Optional[int] = None

    #: Multipliers applied to ``execute_cost`` per IEL function. Reads on
    #: vault-scan systems are handled separately via ``scan_cost``.
    function_cost: typing.Mapping[str, float] = dataclasses.field(default_factory=dict)

    #: Corda only - seconds per vault state scanned on a read.
    scan_cost: float = 0.0

    #: Corda only - flow session/signing time per counterparty signature.
    signing_cost: float = 0.0

    #: Corda only - concurrent flow workers per node.
    flow_workers: int = 1

    #: Corda OS only - overload degradation: service time is multiplied by
    #: ``1 + queue_depth / overload_knee`` (checkpoint pressure). 0 = off.
    overload_knee: float = 0.0

    #: Diem only - mean seconds between validator "spiking" pauses and the
    #: mean pause length (Balster's observation, Section 5.7).
    spike_interval: float = 0.0
    spike_duration: float = 0.0

    def __post_init__(self) -> None:
        # Memo of execute_cost_for. Not a field: equality and repr ignore
        # it, and dataclasses.replace starts an empty one.
        object.__setattr__(self, "_execute_costs", {})

    def function_multiplier(self, function: str) -> float:
        """Cost multiplier for one IEL function (1.0 when unlisted)."""
        return self.function_cost.get(function, 1.0)

    def execute_cost_for(self, function: str) -> float:
        """CPU time to execute one payload of ``function``:
        ``execute_cost * function_multiplier(function)``, computed once
        per function name."""
        cost = self._execute_costs.get(function)
        if cost is None:
            cost = self.execute_cost * self.function_multiplier(function)
            self._execute_costs[function] = cost
        return cost


#: Corda OS: every node signs serially, single-threaded flow workers, H2
#: vault reads are linear scans (Section 5.1). Aggregate write ceiling
#: ~5/s; queueing degrades it further through checkpoint overhead.
CORDA_OS = PerformanceProfile(
    system="corda_os",
    admission_cost=0.002,
    execute_cost=0.35,
    signing_cost=0.06,
    scan_cost=0.025,
    flow_workers=1,
    overload_knee=7.3,
    mempool_capacity=None,
    event_emit_cost=0.001,
    function_cost={"DoNothing": 0.35, "CreateAccount": 0.9, "Balance": 1.2},
)

#: Corda Enterprise: parallel signature collection, multithreaded flow
#: workers, faster vault (Section 5.2). Write ceiling ~13/s on KV-Set,
#: up to ~65/s on the no-read benchmarks; stable under overload.
CORDA_ENTERPRISE = PerformanceProfile(
    system="corda_enterprise",
    admission_cost=0.0008,
    execute_cost=1.1,
    signing_cost=0.08,
    scan_cost=0.00035,
    flow_workers=4,
    overload_knee=0.0,
    mempool_capacity=100,
    event_emit_cost=0.0005,
    function_cost={"DoNothing": 0.13, "CreateAccount": 0.15, "Balance": 1.1},
)

#: BitShares: witness assembly cost per transaction dominates; operations
#: inside a transaction are cheap (Section 5.3). 1-op ceiling ~590/s,
#: 100-op transactions easily reach the offered 1600 payloads/s.
BITSHARES = PerformanceProfile(
    system="bitshares",
    admission_cost=0.00008,
    execute_cost=0.00035,
    per_tx_overhead=0.0012,
    block_overhead=0.004,
    event_emit_cost=0.00004,
    mempool_capacity=60_000,
    function_cost={"DoNothing": 0.8, "SendPayment": 1.3, "Balance": 1.1},
)

#: Fabric: endorsement + validation pipeline ceiling ~1450 payloads/s;
#: Raft ordering with 1-second block cutting; the event-delivery path
#:  overflows at RL=1600 (Section 5.4).
FABRIC = PerformanceProfile(
    system="fabric",
    admission_cost=0.00012,
    execute_cost=0.00055,
    per_tx_overhead=0.00008,
    block_overhead=0.003,
    event_emit_cost=0.00006,
    mempool_capacity=120_000,
    event_queue_capacity=12_000,
    function_cost={"DoNothing": 0.8, "SendPayment": 1.0, "Balance": 0.9},
)

#: Quorum: EVM execution ~773/s on empty transactions, ~365/s on state-
#: touching ones; bounded txpool produces the observed losses; proposer
#: tx-selection time against a deep pool causes the blockperiod <= 2 s
#: stall (Section 5.5).
QUORUM = PerformanceProfile(
    system="quorum",
    admission_cost=0.00015,
    execute_cost=0.00118,
    per_tx_overhead=0.0,
    block_overhead=0.004,
    event_emit_cost=0.00008,
    mempool_capacity=4_096,
    function_cost={"DoNothing": 0.5, "SendPayment": 1.05, "Balance": 1.0},
)

#: Sawtooth: heavy per-batch overhead (transaction processor round trips)
#: plus a small bounded pending queue that rejects batches under load
#: (Section 5.6). ~30 batches/s ceiling; admission work steals cycles
#: from publishing under very high load.
SAWTOOTH = PerformanceProfile(
    system="sawtooth",
    admission_cost=0.00055,
    execute_cost=0.0115,
    per_tx_overhead=0.0,
    block_overhead=0.010,
    event_emit_cost=0.0002,
    mempool_capacity=25,  # pending-queue capacity in batches
    function_cost={"DoNothing": 0.8, "SendPayment": 1.15, "Balance": 1.0},
)

#: Diem: ~100 payloads/s execution ceiling, a deep mempool (so confirmed
#: transactions wait ~100 s), heavy queue losses and periodic validator
#: "spiking" pauses (Section 5.7).
DIEM = PerformanceProfile(
    system="diem",
    admission_cost=0.0006,
    execute_cost=0.0095,
    per_tx_overhead=0.0004,
    block_overhead=0.006,
    event_emit_cost=0.0002,
    mempool_capacity=9_000,
    spike_interval=30.0,
    spike_duration=8.0,
    function_cost={"DoNothing": 0.9, "SendPayment": 1.1, "Balance": 1.0},
)

_PROFILES: typing.Dict[str, PerformanceProfile] = {
    profile.system: profile
    for profile in (CORDA_OS, CORDA_ENTERPRISE, BITSHARES, FABRIC, QUORUM, SAWTOOTH, DIEM)
}


def profile_for(system: str) -> PerformanceProfile:
    """The calibrated profile of one system."""
    if system not in _PROFILES:
        raise KeyError(f"no profile for system {system!r}; known: {sorted(_PROFILES)}")
    return _PROFILES[system]
