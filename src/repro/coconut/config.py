"""Benchmark configuration.

Encodes the experimental settings of Section 4: the benchmark units and
their phase sequences (4.1), the client/thread layout and timing windows
(4.3) and the two primary system parameters plus the per-system extras
(4.4). A ``scale`` factor shortens the simulated windows proportionally
for quick runs; rate-based metrics (MTPS, MFLS) are stable across scale,
which EXPERIMENTS.md verifies.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.faults.plan import FaultPlan
from repro.workloads.spec import WorkloadSpec

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.net.latency import LatencyModel

#: Phase sequences of the benchmark units (Section 4.1): a KeyValue-Set
#: benchmark is always followed by KeyValue-Get; BankingApp runs
#: CreateAccount, SendPayment, Balance in order.
UNIT_PHASES: typing.Dict[str, typing.Tuple[str, ...]] = {
    "DoNothing": ("DoNothing",),
    "KeyValue": ("Set", "Get"),
    "BankingApp": ("CreateAccount", "SendPayment", "Balance"),
}


def unit_for_iel(iel: str) -> typing.Tuple[str, ...]:
    """The phase sequence of one IEL's benchmark unit."""
    if iel not in UNIT_PHASES:
        raise KeyError(f"unknown IEL {iel!r}; known: {sorted(UNIT_PHASES)}")
    return UNIT_PHASES[iel]


@dataclasses.dataclass
class BenchmarkConfig:
    """Everything one benchmark unit needs."""

    system: str
    iel: str
    #: Payloads per second per COCONUT client (Section 4.4's rate
    #: limiter; the aggregate offered load is ``rate_limit * client_count``).
    rate_limit: int
    #: Run only these phases of the unit (None = the full unit).
    phases: typing.Optional[typing.Tuple[str, ...]] = None
    #: System-specific parameters (MaxMessageCount, block_interval, ...).
    params: typing.Dict[str, object] = dataclasses.field(default_factory=dict)
    #: BitShares: operations per transaction (Section 4.4: 1, 50, 100).
    ops_per_transaction: int = 1
    #: Sawtooth: transactions per atomic batch (Section 4.4: 1, 50, 100).
    txs_per_batch: int = 1
    node_count: int = 4
    client_count: int = 4
    workload_threads: int = 4
    repetitions: int = 3
    latency: typing.Optional[LatencyModel] = None
    #: Fault actions injected at the first phase's start (action times
    #: are offsets from that instant). None/empty = a healthy run, which
    #: is byte-identical to one without the faults subsystem.
    fault_plan: typing.Optional[FaultPlan] = None
    #: How load is offered (arrival process, access distribution,
    #: operation mix, scenario script). None or the default spec keep
    #: the paper's generator, byte-identical to pre-workloads runs.
    workload: typing.Optional[WorkloadSpec] = None
    seed: int = 0
    #: Scales the three timing windows below (0.1 = a 30 s send window).
    scale: float = 1.0
    #: Section 4.3 timing: send for 300 s ...
    send_duration: float = 300.0
    #: ... keep listening for confirmations until 330 s ...
    listen_duration: float = 330.0
    #: ... and terminate the clients at 420 s.
    total_duration: float = 420.0

    def __post_init__(self) -> None:
        if self.iel not in UNIT_PHASES:
            raise ValueError(f"unknown IEL {self.iel!r}; known: {sorted(UNIT_PHASES)}")
        if self.rate_limit < 1:
            raise ValueError(f"rate_limit must be >= 1, got {self.rate_limit}")
        if self.workload_threads < 1:
            raise ValueError(
                f"workload_threads must be >= 1, got {self.workload_threads}"
            )
        if self.client_count < 1:
            raise ValueError(f"client_count must be >= 1, got {self.client_count}")
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.ops_per_transaction < 1 or self.txs_per_batch < 1:
            raise ValueError("bundle sizes must be >= 1")
        if self.ops_per_transaction > 1 and self.system != "bitshares":
            raise ValueError("ops_per_transaction > 1 is a BitShares setting")
        if self.txs_per_batch > 1 and self.system != "sawtooth":
            raise ValueError("txs_per_batch > 1 is a Sawtooth setting")
        if self.send_duration <= 0:
            raise ValueError(
                f"send_duration must be > 0, got {self.send_duration}"
            )
        if not (self.send_duration <= self.listen_duration <= self.total_duration):
            raise ValueError(
                "timing windows must be ordered send <= listen <= total, got "
                f"{self.send_duration}/{self.listen_duration}/{self.total_duration}"
            )
        if self.workload is not None:
            # Fail at construction, naming the offending phase/operation,
            # instead of a KeyError minutes into a run.
            self.workload.validate_for(self.iel, UNIT_PHASES[self.iel])

    @property
    def phase_sequence(self) -> typing.Tuple[str, ...]:
        """The phases this run executes."""
        full = unit_for_iel(self.iel)
        if self.phases is None:
            return full
        unknown = [p for p in self.phases if p not in full]
        if unknown:
            raise ValueError(f"phases {unknown} not part of the {self.iel} unit {full}")
        return tuple(self.phases)

    @property
    def scaled_send(self) -> float:
        """Send window in simulated seconds after scaling."""
        return self.send_duration * self.scale

    @property
    def scaled_listen(self) -> float:
        """Listen window in simulated seconds after scaling."""
        return self.listen_duration * self.scale

    @property
    def scaled_total(self) -> float:
        """Client lifetime in simulated seconds after scaling."""
        return self.total_duration * self.scale

    @property
    def aggregate_rate(self) -> int:
        """Total offered payloads per second across all clients (the RL
        column of the paper's tables)."""
        return self.rate_limit * self.client_count

    @property
    def expected_payloads_per_client(self) -> int:
        """Payloads one client offers during the send window."""
        return int(self.rate_limit * self.scaled_send)

    def label(self) -> str:
        """Short description used in reports and file names."""
        parts = [self.system, self.iel, f"rl{self.aggregate_rate}"]
        for key, value in sorted(self.params.items()):
            short = "".join(ch for ch in str(key) if ch.isupper()) or str(key)[:2]
            parts.append(f"{short}{value}")
        if self.ops_per_transaction > 1:
            parts.append(f"ops{self.ops_per_transaction}")
        if self.txs_per_batch > 1:
            parts.append(f"batch{self.txs_per_batch}")
        if self.latency is not None:
            parts.append("netem")
        if self.fault_plan:
            parts.append(f"faults{len(self.fault_plan)}")
        if self.workload is not None and not self.workload.is_default:
            parts.append(f"wl-{self.workload.short_label()}")
        if self.node_count != 4:
            parts.append(f"n{self.node_count}")
        return "-".join(parts)
