"""The seven blockchain system models.

Each module builds one system as a set of nodes over the simulated
network, running its real consensus message flow plus a
calibrated cost model (:mod:`repro.chains.profiles`). All models expose
the uniform deployment API of :mod:`repro.chains.base`, which is what the
COCONUT client layer drives.

Names are imported on first use (PEP 562), and
:mod:`repro.chains.registry` imports a model only when a run asks for
it, so a Fabric run never loads Corda or the BFT engines.
"""

from repro._exports import lazy_exports

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "BitSharesSystem": "repro.chains.bitshares",
    "BlockProposal": "repro.chains.base",
    "ClientReject": "repro.chains.base",
    "CordaEnterpriseSystem": "repro.chains.corda_enterprise",
    "CordaOsSystem": "repro.chains.corda_os",
    "DeploymentSpec": "repro.chains.base",
    "DiemSystem": "repro.chains.diem",
    "FabricSystem": "repro.chains.fabric",
    "FinalityTracker": "repro.chains.base",
    "PerformanceProfile": "repro.chains.profiles",
    "QuorumSystem": "repro.chains.quorum",
    "SYSTEM_NAMES": "repro.chains.registry",
    "SawtoothSystem": "repro.chains.sawtooth",
    "SystemModel": "repro.chains.base",
    "create_system": "repro.chains.registry",
    "profile_for": "repro.chains.profiles",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
