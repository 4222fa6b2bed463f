"""System registry: name -> model class, imported on first use.

Importing a model imports its one consensus engine (Fabric: Raft;
Quorum: IBFT; Sawtooth: PBFT; Diem: DiemBFT; BitShares: DPoS; the two
Corda editions: their notary, in the model itself), so a run loads the
code of the system it deploys and no other.
"""

from __future__ import annotations

import importlib
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.chains.base import DeploymentSpec, SystemModel
    from repro.sim.kernel import Simulator

#: Registry name -> (defining module, class name), in the paper's
#: presentation order (Figure 3 columns). Each class's ``name`` is its key.
_SYSTEMS: typing.Dict[str, typing.Tuple[str, str]] = {
    "corda_os": ("repro.chains.corda_os", "CordaOsSystem"),
    "corda_enterprise": ("repro.chains.corda_enterprise", "CordaEnterpriseSystem"),
    "bitshares": ("repro.chains.bitshares", "BitSharesSystem"),
    "fabric": ("repro.chains.fabric", "FabricSystem"),
    "quorum": ("repro.chains.quorum", "QuorumSystem"),
    "sawtooth": ("repro.chains.sawtooth", "SawtoothSystem"),
    "diem": ("repro.chains.diem", "DiemSystem"),
}

#: The seven systems, in the paper's presentation order (Figure 3 columns).
SYSTEM_NAMES: typing.Tuple[str, ...] = tuple(_SYSTEMS)

#: Human-readable labels matching the paper's figures.
SYSTEM_LABELS: typing.Dict[str, str] = {
    "corda_os": "Corda OS",
    "corda_enterprise": "Corda Enterprise",
    "bitshares": "BitShares",
    "fabric": "Fabric",
    "quorum": "Quorum",
    "sawtooth": "Sawtooth",
    "diem": "Diem",
}


def create_system(
    name: str, sim: "Simulator", spec: "DeploymentSpec", iel_name: str
) -> "SystemModel":
    """Instantiate a system model by registry name."""
    return system_class(name)(sim, spec, iel_name)


def system_class(name: str) -> typing.Type["SystemModel"]:
    """Look up a system model class by name, importing its module on
    first use."""
    if name not in _SYSTEMS:
        raise KeyError(f"unknown system {name!r}; known: {sorted(_SYSTEMS)}")
    module, cls = _SYSTEMS[name]
    return getattr(importlib.import_module(module), cls)
