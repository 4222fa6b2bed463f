"""Ledger storage substrate.

Defines the data model shared by all seven system models: payloads (the
client-side accounting unit), transactions and batches
(:mod:`repro.storage.transaction`), hash-linked blocks and chains
(:mod:`repro.storage.block`, :mod:`repro.storage.chain`), the versioned
key-value world state with MVCC validation used by Fabric-style
execute-order-validate (:mod:`repro.storage.state`), the UTXO state
references used by Corda (:mod:`repro.storage.utxo`) and commit receipts
(:mod:`repro.storage.receipts`).
"""

from repro.storage.block import Block, BlockHeader
from repro.storage.chain import Chain, ChainValidationError
from repro.storage.receipts import Receipt, TxStatus
from repro.storage.state import ReadWriteSet, WorldState
from repro.storage.transaction import Batch, Payload, Transaction
from repro.storage.utxo import StateRef

__all__ = [
    "Batch",
    "Block",
    "BlockHeader",
    "Chain",
    "ChainValidationError",
    "Payload",
    "ReadWriteSet",
    "Receipt",
    "StateRef",
    "Transaction",
    "TxStatus",
    "WorldState",
]
