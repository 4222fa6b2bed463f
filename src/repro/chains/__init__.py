"""The seven blockchain system models.

Each module builds one system as a set of nodes over the simulated
network, running its real consensus message flow plus a
calibrated cost model (:mod:`repro.chains.profiles`). All models expose
the uniform deployment API of :mod:`repro.chains.base`, which is what the
COCONUT client layer drives.
"""

from repro.chains.base import (
    BlockProposal,
    ClientReject,
    DeploymentSpec,
    FinalityTracker,
    SystemModel,
)
from repro.chains.bitshares import BitSharesSystem
from repro.chains.corda_enterprise import CordaEnterpriseSystem
from repro.chains.corda_os import CordaOsSystem
from repro.chains.diem import DiemSystem
from repro.chains.fabric import FabricSystem
from repro.chains.profiles import PerformanceProfile, profile_for
from repro.chains.quorum import QuorumSystem
from repro.chains.registry import SYSTEM_NAMES, create_system
from repro.chains.sawtooth import SawtoothSystem

__all__ = [
    "BitSharesSystem",
    "BlockProposal",
    "ClientReject",
    "CordaEnterpriseSystem",
    "CordaOsSystem",
    "DeploymentSpec",
    "DiemSystem",
    "FabricSystem",
    "FinalityTracker",
    "PerformanceProfile",
    "QuorumSystem",
    "SYSTEM_NAMES",
    "SawtoothSystem",
    "SystemModel",
    "create_system",
    "profile_for",
]
