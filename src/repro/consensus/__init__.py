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

Names are imported on first use (PEP 562), and a system model imports
only the engine it runs (Quorum's IBFT also reuses PBFT's digest).
"""

from repro._exports import lazy_exports

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "Decision": "repro.consensus.base",
    "DiemBftEngine": "repro.consensus.diembft",
    "DposEngine": "repro.consensus.dpos",
    "EngineContext": "repro.consensus.base",
    "IbftEngine": "repro.consensus.ibft",
    "PbftEngine": "repro.consensus.pbft",
    "RaftEngine": "repro.consensus.raft",
    "ReplicaEngine": "repro.consensus.base",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
