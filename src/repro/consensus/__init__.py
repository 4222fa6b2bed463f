"""Consensus engines.

Six protocols cover the seven systems (Table 2 of the paper). Five are
engines here: Raft (Fabric's ordering service), PBFT (Sawtooth),
Istanbul BFT (Quorum), DiemBFT/HotStuff (Diem) and Delegated
Proof-of-Stake (BitShares). The sixth, the Corda notary uniqueness
service, is part of the Corda model
(:class:`repro.chains.corda_os.CordaNotary`). Each engine is a
replica-local state machine exchanging the protocol's real message flow
through :class:`~repro.consensus.base.EngineContext`; agreement is
reached at block granularity.
"""

from repro.consensus.base import Decision, EngineContext, ReplicaEngine
from repro.consensus.diembft import DiemBftEngine
from repro.consensus.dpos import DposEngine
from repro.consensus.ibft import IbftEngine
from repro.consensus.pbft import PbftEngine
from repro.consensus.raft import RaftEngine

__all__ = [
    "Decision",
    "DiemBftEngine",
    "DposEngine",
    "EngineContext",
    "IbftEngine",
    "PbftEngine",
    "RaftEngine",
    "ReplicaEngine",
]
