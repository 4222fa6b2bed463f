"""The benchmark's four workloads, written out literally.

Nothing here is imported from :mod:`repro.experiments`, so retuning an
experiment cannot move the benchmark. Every unit is built through the
public :class:`~repro.coconut.config.BenchmarkConfig` API.

The simulated COCONUT clients form an open loop: each client offers a
fixed payload rate on the simulated clock whatever the system does. The
benchmark's own loop is closed: it runs one unit at a time.

Windows are short, so that one child process runs a whole workload in
about 2-4 s and one timed run holds several children whose median is
reported. Rates, parameters, node counts, latency, faults and seeds are
the paper's cells; only the simulated windows are scaled down.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.coconut.config import BenchmarkConfig
from repro.faults.plan import FaultAction, FaultPlan
from repro.net.latency import NetemLatency
from repro.trace.tracer import Tracer


@dataclasses.dataclass(frozen=True)
class Unit:
    """One benchmark unit of a workload."""

    #: Short name, unique inside its workload.
    name: str
    #: Keyword arguments of :class:`BenchmarkConfig`, literally.
    config: typing.Mapping[str, object]
    #: Use the paper's netem WAN link: normal delay, mu 12 ms, jitter 2 ms.
    wan: bool = False
    #: Fault actions as :meth:`FaultAction.to_dict` mappings.
    faults: typing.Tuple[typing.Mapping[str, object], ...] = ()
    #: Run under strict invariant oracles with a default ``Tracer()``,
    #: the way ``coconut run --check-level strict --trace`` does.
    checked: bool = False

    def build(self, seed: typing.Optional[int] = None) -> BenchmarkConfig:
        """The unit's config; ``seed`` replaces the default seed."""
        kwargs = dict(self.config)
        if seed is not None:
            kwargs["seed"] = seed
        kwargs["repetitions"] = 1
        if self.wan:
            kwargs["latency"] = NetemLatency(mean=0.012, jitter=0.002)
        if self.faults:
            kwargs["fault_plan"] = FaultPlan(FaultAction.from_dict(a) for a in self.faults)
        return BenchmarkConfig(**kwargs)

    def runner_kwargs(self) -> typing.Dict[str, object]:
        """Extra :class:`BenchmarkRunner` arguments of this unit."""
        if not self.checked:
            return {}
        return {"check": True, "check_level": "strict", "tracer": Tracer()}


def _seven_kv() -> typing.Tuple[Unit, ...]:
    # Each system at its best heat-map setting. Windows are 0.1 x to
    # 0.3 x each system's recommended scale, chosen so that every unit
    # still commits blocks (Quorum needs two 5 s block periods).
    cells = (
        ("corda_os", 0.075, {"rate_limit": 5}),
        ("corda_enterprise", 0.05, {"rate_limit": 40}),
        ("bitshares", 0.01, {"rate_limit": 400, "params": {"block_interval": 1.0},
                             "ops_per_transaction": 100}),
        ("fabric", 0.01, {"rate_limit": 400, "params": {"MaxMessageCount": 2000}}),
        ("quorum", 0.03, {"rate_limit": 400, "params": {"istanbul.blockperiod": 5.0}}),
        ("sawtooth", 0.03, {"rate_limit": 50, "params": {"block_publishing_delay": 1.0},
                            "txs_per_batch": 100}),
        ("diem", 0.06, {"rate_limit": 50, "params": {"max_block_size": 2000}}),
    )
    return tuple(
        Unit(system, dict(system=system, iel="KeyValue", scale=scale, seed=3, **extra))
        for system, scale, extra in cells
    )


#: Workload name -> its units, run back to back in one child process.
WORKLOADS: typing.Dict[str, typing.Tuple[Unit, ...]] = {
    # The paper's best Fabric cell at saturation: the most payload
    # records per run over point-to-point traffic, so client
    # record-keeping, hashing and block storage do the work and
    # broadcast fan-out does almost none.
    "fabric-kv": (
        Unit("fabric", dict(system="fabric", iel="KeyValue", rate_limit=400,
                            params={"MaxMessageCount": 2000}, scale=0.02, seed=3)),
    ),
    # Fig. 5's n=32 point over the WAN: IBFT fans every round out to 31
    # peers and all 32 validators execute every block, while client
    # records stay few.
    "quorum-n32": (
        Unit("quorum", dict(system="quorum", iel="DoNothing", rate_limit=400,
                            params={"istanbul.blockperiod": 5.0}, node_count=32,
                            scale=0.04, seed=58), wan=True),
    ),
    # Every chain model and consensus engine: Raft, IBFT, PBFT,
    # DiemBFT, DPoS and the Corda notary.
    "seven-kv": _seven_kv(),
    # Resilience and conformance checking as users run it: the Raft
    # leader crashes 30 s into each phase and restarts at 60 s, under
    # strict oracles and a full trace.
    "fabric-crash-checked": (
        Unit("fabric", dict(system="fabric", iel="KeyValue", rate_limit=10,
                            scale=0.4, seed=3),
             faults=({"kind": "crash", "at": 30.0, "target": "leader"},
                     {"kind": "restart", "at": 60.0, "target": "leader"}),
             checked=True),
    ),
}
