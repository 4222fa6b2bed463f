"""Commit receipts delivered to clients.

The COCONUT client's end-to-end measurement (paper Fig. 2) ends when it
receives the confirmation that a transaction is persisted on *all* nodes.
A :class:`Receipt` is that confirmation: one per payload, carrying the
commit status and the time the last replica persisted it.
"""

from __future__ import annotations

import enum
import typing


class TxStatus(enum.Enum):
    """Terminal status of a payload as observed by the client."""

    #: Persisted on all nodes; the success path.
    COMMITTED = "committed"
    #: Executed but failed validation (e.g. Fabric MVCC conflict); on chain
    #: but not in world state.
    INVALIDATED = "invalidated"
    #: Rejected before ordering (queue full, notary double-spend, ...).
    REJECTED = "rejected"
    #: The atomic unit containing it failed, discarding the payload.
    DISCARDED = "discarded"

    @property
    def is_success(self) -> bool:
        """Whether the client counts this as a received transaction.

        The paper counts every transaction appended to the chain for
        Fabric, including invalidated ones (Section 5.4) — so INVALIDATED
        counts as received.
        """
        return self in (TxStatus.COMMITTED, TxStatus.INVALIDATED)


class Receipt:
    """The finalization notification for one payload.

    A ``__slots__`` class with a plain ``__init__``, like
    :class:`~repro.storage.Payload`: finality builds one per payload.
    Treat instances as immutable (``tests/storage/test_immutability.py``).
    Equality is identity: receipts travel in lists, and nothing compares
    or hashes them.
    """

    __slots__ = ("payload_id", "tx_id", "status", "block_height", "commit_time", "detail")

    def __init__(
        self,
        payload_id: str,
        tx_id: str,
        status: TxStatus,
        block_height: typing.Optional[int],
        commit_time: float,
        detail: str = "",
    ) -> None:
        self.payload_id = payload_id
        self.tx_id = tx_id
        self.status = status
        self.block_height = block_height
        self.commit_time = commit_time
        self.detail = detail

    def __reduce__(self) -> tuple:
        # Rebuilt through __init__, on every pickle protocol.
        return (Receipt, (self.payload_id, self.tx_id, self.status, self.block_height,
                          self.commit_time, self.detail))

    @property
    def is_success(self) -> bool:
        """Whether this receipt confirms a received transaction."""
        return self.status.is_success
