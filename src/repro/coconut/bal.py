"""The blockchain access layer (BAL).

Figure 1's driver component: maps client payloads onto each system's
transaction structure (Table 2). Most systems take one payload per
transaction; BitShares packs ``ops_per_transaction`` payloads into one
atomic transaction; Sawtooth packs ``txs_per_batch`` single-payload
transactions into one atomic batch.
"""

from __future__ import annotations

import abc
import typing

from repro.storage import Batch, Payload, Transaction


class Driver(abc.ABC):
    """Wraps payload groups into one system's submission bundles."""

    #: How many payloads one submission carries.
    group_size: int = 1

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id

    @abc.abstractmethod
    def wrap(self, payloads: typing.Sequence[Payload]) -> object:
        """Bundle a payload group into the wire object for submission."""

    def describe(self) -> str:
        """One-line driver summary for logs."""
        return f"{type(self).__name__}(group={self.group_size})"


class SingleTransactionDriver(Driver):
    """One payload per transaction (Corda, Fabric, Quorum, Diem)."""

    def wrap(self, payloads: typing.Sequence[Payload]) -> Transaction:
        if len(payloads) != 1:
            raise ValueError(f"expected one payload, got {len(payloads)}")
        return Transaction.wrap(payloads, submitter=self.client_id)


class BitSharesDriver(Driver):
    """Multiple operations per atomic transaction (Table 2)."""

    def __init__(self, client_id: str, ops_per_transaction: int = 1) -> None:
        super().__init__(client_id)
        if not 1 <= ops_per_transaction <= 100:
            raise ValueError(f"ops_per_transaction must be 1..100, got {ops_per_transaction}")
        self.group_size = ops_per_transaction

    def wrap(self, payloads: typing.Sequence[Payload]) -> Transaction:
        return Transaction.wrap(payloads, submitter=self.client_id, kind="bitshares")


class SawtoothDriver(Driver):
    """Multiple single-payload transactions per atomic batch (Table 2)."""

    def __init__(self, client_id: str, txs_per_batch: int = 1) -> None:
        super().__init__(client_id)
        if not 1 <= txs_per_batch <= 100:
            raise ValueError(f"txs_per_batch must be 1..100, got {txs_per_batch}")
        self.group_size = txs_per_batch

    def wrap(self, payloads: typing.Sequence[Payload]) -> Batch:
        transactions = [
            Transaction.wrap((payload,), submitter=self.client_id) for payload in payloads
        ]
        return Batch.wrap(transactions, submitter=self.client_id)


def make_driver(
    system: str,
    client_id: str,
    ops_per_transaction: int = 1,
    txs_per_batch: int = 1,
) -> Driver:
    """Build the right driver for a system."""
    if system == "bitshares":
        return BitSharesDriver(client_id, ops_per_transaction)
    if system == "sawtooth":
        return SawtoothDriver(client_id, txs_per_batch)
    return SingleTransactionDriver(client_id)
