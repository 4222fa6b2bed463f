"""Errors in callback code stop the run.

Per-transaction CPU jobs (admission, Sawtooth's gossip charge, Fabric's
endorsement), the long-lived loops (committers, event emitters, block
timers, Sawtooth's executor and publisher, Diem's spikes) and Corda's
flows and notary all run as ``schedule`` callbacks. An exception in any
of them propagates out of ``Simulator.run``: nothing swallows it the way
a failed generator process that nobody waited on did.
"""

import dataclasses
import typing

import pytest

from repro.chains.bitshares import BitSharesSystem
from repro.chains.corda_os import CordaNotary, CordaOsSystem, CordaSystemBase, _Flow
from repro.chains.diem import DiemSystem
from repro.chains.fabric import FabricOrderer, FabricPeer
from repro.chains.profiles import PerformanceProfile
from repro.chains.quorum import QuorumSystem
from repro.chains.sawtooth import SawtoothSystem, SawtoothValidator
from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.consensus.ibft import IbftEngine
from repro.consensus.pbft import PbftEngine
from repro.faults import FaultPlan


@dataclasses.dataclass(frozen=True)
class Call:
    """A call some callback makes (named in the comment) after its hop:
    ``attribute`` of ``owner``, on a small ``system`` unit. A call that
    has no other caller is named where one exists; otherwise the row
    names the callback itself."""

    system: str
    owner: type
    attribute: str
    params: typing.Tuple[typing.Tuple[str, object], ...] = ()
    #: Install a fault plan, which arms Corda's flow timers.
    faulted: bool = False
    scale: float = 0.01


CONTINUATION_CALLS = [
    # One-shot CPU jobs.
    Call("fabric", FabricPeer, "forward_envelope"),  # _endorse_and_forward
    Call("quorum", QuorumSystem, "remember_owner"),  # _admit
    Call("diem", DiemSystem, "remember_owner"),  # _admit
    Call("bitshares", BitSharesSystem, "remember_owner"),  # _admit
    Call("sawtooth", SawtoothSystem, "remember_owner"),  # _admitted
    Call("sawtooth", PbftEngine, "stopped"),  # _gossip_charged
    # Long-lived loops.
    Call("quorum", QuorumSystem, "stage_finality"),  # ReplicaNode._apply_block
    Call("diem", DiemSystem, "release_committed"),  # DiemValidator.block_committed
    # Diem's first spike comes after an exponential wait of mean 30 s.
    Call("diem", PerformanceProfile, "spike_duration", scale=0.1),  # DiemValidator._spike
    Call("sawtooth", SawtoothValidator, "apply_payloads"),  # SawtoothValidator._verify_block
    Call("sawtooth", SawtoothValidator, "try_apply_batch"),  # SawtoothSystem._batch_executed
    Call("sawtooth", PbftEngine, "submit_proposal"),  # SawtoothSystem._published
    Call("sawtooth", SawtoothSystem, "stage_finality"),  # SawtoothSystem._publish
    Call("quorum", IbftEngine, "maybe_propose"),  # QuorumSystem._tick
    Call("fabric", PerformanceProfile, "event_emit_cost"),  # BaseNode._emit
    Call("fabric", FabricPeer, "validate_block"),  # FabricPeer._validated
    Call("fabric", FabricOrderer, "_batch_tick"),
    Call(
        "fabric", FabricOrderer, "on_kafka_message",  # KafkaBroker._append
        params=(("OrderingService", "kafka"),),
    ),
    # Corda flows and the notary.
    Call("corda_os", CordaSystemBase, "_flow_service_time"),  # _Flow.start
    Call("corda_os", _Flow, "_executed"),
    Call("corda_os", _Flow, "_sign_next"),
    Call("corda_enterprise", _Flow, "_count_reply"),
    Call("corda_enterprise", CordaSystemBase, "notary_for"),  # _Flow._notarise
    Call("corda_os", CordaOsSystem, "stage_finality"),  # _Flow._notarised
    Call("corda_os", _Flow, "_settle", faulted=True),
    Call("corda_os", _Flow, "_resume", faulted=True),
    Call("corda_os", CordaNotary, "_sign"),
    Call("corda_os", CordaNotary, "_agree"),
    Call("corda_os", CordaNotary, "_check_and_mark"),
]


def small_unit(call: Call, rate: int) -> BenchmarkConfig:
    config = BenchmarkConfig(
        system=call.system, iel="DoNothing", rate_limit=rate, client_count=2,
        scale=call.scale, repetitions=1, seed=1, params=dict(call.params),
    )
    if call.faulted:
        config.fault_plan = FaultPlan().crash("n1", at=config.scaled_total)
    return config


class TestContinuationErrorsPropagate:
    @pytest.mark.parametrize(
        "call", CONTINUATION_CALLS,
        ids=[f"{call.system}-{call.attribute}" for call in CONTINUATION_CALLS],
    )
    def test_error_escapes_the_run(self, monkeypatch, call):
        attribute = call.attribute

        def broken(*args):
            raise RuntimeError(f"{attribute} failed")

        if not callable(getattr(call.owner, attribute)):
            broken = property(broken)
        monkeypatch.setattr(call.owner, attribute, broken)
        with pytest.raises(RuntimeError, match=f"{attribute} failed"):
            BenchmarkRunner(keep_last_rig=False).run(small_unit(call, 10))
