"""Ledger storage substrate.

Defines the data model shared by all seven system models: payloads (the
client-side accounting unit), transactions and batches
(:mod:`repro.storage.transaction`), hash-linked blocks and chains
(:mod:`repro.storage.block`, :mod:`repro.storage.chain`), the versioned
key-value world state with MVCC validation used by Fabric-style
execute-order-validate (:mod:`repro.storage.state`), the UTXO state
references used by Corda (:mod:`repro.storage.utxo`) and commit receipts
(:mod:`repro.storage.receipts`).

Names are imported on first use (PEP 562): only the Corda models
load the UTXO references.
"""

from repro._exports import lazy_exports

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "Batch": "repro.storage.transaction",
    "Block": "repro.storage.block",
    "BlockHeader": "repro.storage.block",
    "Chain": "repro.storage.chain",
    "ChainValidationError": "repro.storage.chain",
    "Payload": "repro.storage.transaction",
    "ReadWriteSet": "repro.storage.state",
    "Receipt": "repro.storage.receipts",
    "StateRef": "repro.storage.utxo",
    "Transaction": "repro.storage.transaction",
    "TxStatus": "repro.storage.receipts",
    "WorldState": "repro.storage.state",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
