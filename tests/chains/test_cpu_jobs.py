"""Per-transaction CPU work runs as callback jobs, not processes.

Admission (Quorum, Diem, BitShares, Sawtooth), Sawtooth's gossip charge
and Fabric's endorsement each cost one CPU job per offered transaction.
These tests pin that no generator process is created per transaction,
and that an error in a job's continuation stops the run instead of
failing a process nobody waits on.
"""

import pytest

from repro.chains.bitshares import BitSharesSystem
from repro.chains.diem import DiemSystem
from repro.chains.fabric import FabricPeer
from repro.chains.quorum import QuorumSystem
from repro.chains.sawtooth import SawtoothSystem
from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.consensus.pbft import PbftEngine
from repro.sim.process import Process

SYSTEMS = ("fabric", "quorum", "diem", "bitshares", "sawtooth")

#: A call each per-transaction job's continuation (named in the comment)
#: makes after the job's CPU time: (system, owner, attribute).
CONTINUATION_CALLS = [
    ("fabric", FabricPeer, "forward_envelope"),  # _endorse_and_forward
    ("quorum", QuorumSystem, "remember_owner"),  # _admit
    ("diem", DiemSystem, "remember_owner"),  # _admit
    ("bitshares", BitSharesSystem, "remember_owner"),  # _admit
    ("sawtooth", SawtoothSystem, "remember_owner"),  # _admitted
    ("sawtooth", PbftEngine, "stopped"),  # _gossip_charged
]


def small_unit(system: str, rate: int) -> BenchmarkConfig:
    return BenchmarkConfig(
        system=system, iel="DoNothing", rate_limit=rate, client_count=2,
        scale=0.01, repetitions=1, seed=1,
    )


def run_counting_processes(monkeypatch, config: BenchmarkConfig):
    """Run ``config``; returns (processes created, payloads offered)."""
    created = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    result = BenchmarkRunner(keep_last_rig=False).run(config)
    offered = sum(
        phase.repetitions[0].expected for phase in result.phases.values()
    )
    return len(created), offered


class TestNoProcessPerTransaction:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_process_count_does_not_grow_with_offered_load(self, monkeypatch, system):
        low, low_offered = run_counting_processes(monkeypatch, small_unit(system, 10))
        high, high_offered = run_counting_processes(monkeypatch, small_unit(system, 40))
        assert high_offered > 3 * low_offered
        # Only long-lived loops are processes: committers, emitters,
        # tickers, the Sawtooth executor and publisher.
        assert high == low


class TestContinuationErrorsPropagate:
    @pytest.mark.parametrize(
        "system,owner,attribute", CONTINUATION_CALLS,
        ids=[f"{system}-{attribute}" for system, __, attribute in CONTINUATION_CALLS],
    )
    def test_error_escapes_the_run(self, monkeypatch, system, owner, attribute):
        def broken(*args):
            raise RuntimeError(f"{attribute} failed")

        if isinstance(getattr(owner, attribute), property):
            broken = property(broken)
        monkeypatch.setattr(owner, attribute, broken)
        with pytest.raises(RuntimeError, match=f"{attribute} failed"):
            BenchmarkRunner(keep_last_rig=False).run(small_unit(system, 10))
