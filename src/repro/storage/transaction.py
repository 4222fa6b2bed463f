"""Payloads, transactions and batches.

The paper's accounting unit is the *payload*: "the maximum number of
payloads, wrapped into transactions and batches, to be sent by each
COCONUT client per second" (Section 4.4). A payload is one IEL function
invocation as seen by the client; the blockchain access layer wraps
payloads into the system's transaction structure:

* most systems — one payload per transaction;
* BitShares — 1..100 *operations* (payloads) per atomic transaction;
* Sawtooth — 1..100 transactions per atomic *batch*.

BitShares' MTPS calculation counts each operation as a transaction
(Section 4.5), which falls out naturally from counting payloads.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.crypto.hashing import tuple_digest

_payload_counter = itertools.count(1)
_tx_counter = itertools.count(1)
_batch_counter = itertools.count(1)


def reset_id_counters() -> None:
    """Restart every global id sequence (deterministic ids for tests).

    Covers payload/transaction/batch ids here plus the consensus proposal
    ids — any globally counted identifier that can surface in results or
    traces, so a fixed-seed run reproduces byte-identically regardless of
    what ran earlier in the process.
    """
    global _payload_counter, _tx_counter, _batch_counter
    _payload_counter = itertools.count(1)
    _tx_counter = itertools.count(1)
    _batch_counter = itertools.count(1)
    # Late import: chains must not become an import-time dependency of
    # the transaction module (chains imports storage).
    from repro.chains.base import reset_proposal_counter

    reset_proposal_counter()


@dataclasses.dataclass(frozen=True)
class Payload:
    """One IEL function invocation submitted by a client."""

    payload_id: str
    client_id: str
    iel: str
    function: str
    args: typing.Tuple[typing.Tuple[str, object], ...]
    size_bytes: int = 128

    @classmethod
    def create(
        cls,
        client_id: str,
        iel: str,
        function: str,
        args: typing.Optional[dict] = None,
        size_bytes: int = 128,
    ) -> "Payload":
        """Build a payload with a fresh globally unique id."""
        return cls(
            payload_id=f"p{next(_payload_counter)}",
            client_id=client_id,
            iel=iel,
            function=function,
            args=tuple(sorted((args or {}).items())),
            size_bytes=size_bytes,
        )

    def arg(self, name: str, default: object = None) -> object:
        """Look up one named argument."""
        for key, value in self.args:
            if key == name:
                return value
        return default

    def canonical_tuple(self) -> tuple:
        """Stable tuple for content hashing."""
        return (self.payload_id, self.client_id, self.iel, self.function, self.args)


@dataclasses.dataclass(frozen=True)
class Transaction:
    """An atomic unit ordered by consensus.

    ``payloads`` has length 1 for single-operation systems and up to 100
    for BitShares multi-operation transactions. Atomicity: if any payload
    fails during execution, the whole transaction is discarded.

    Slotted by hand: a run holds every transaction it offered, and a
    slot per field takes less memory than an instance dict. The wire
    size and the digest live in two more slots that are not dataclass
    fields, so they take no part in ``__init__``, equality or ``repr``
    (and no field may have a class-level default).
    """

    __slots__ = ("tx_id", "payloads", "submitter", "kind", "size_bytes", "_digest")

    tx_id: str
    payloads: typing.Tuple[Payload, ...]
    submitter: str
    kind: str

    def __post_init__(self) -> None:
        # Wire size: payload bytes plus a fixed envelope.
        object.__setattr__(self, "size_bytes", 96 + sum(p.size_bytes for p in self.payloads))
        object.__setattr__(self, "_digest", None)

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    @classmethod
    def wrap(cls, payloads: typing.Sequence[Payload], submitter: str, kind: str = "generic") -> "Transaction":
        """Wrap payloads into a transaction with a fresh id."""
        if not payloads:
            raise ValueError("a transaction needs at least one payload")
        return cls(
            tx_id=f"tx{next(_tx_counter)}",
            payloads=tuple(payloads),
            submitter=submitter,
            kind=kind,
        )

    def canonical_tuple(self) -> tuple:
        """Stable tuple for content hashing."""
        return (self.tx_id, self.submitter, self.kind, tuple([p.canonical_tuple() for p in self.payloads]))

    @property
    def content_hash(self) -> str:
        """Canonical digest, computed once per transaction.

        Every replica's Merkle verification and the strict checker's
        full-chain pass hash the same Transaction objects; memoizing the
        digest collapses that to one encoding per transaction ever.
        """
        digest = self._digest
        if digest is None:
            digest = tuple_digest(self)
            object.__setattr__(self, "_digest", digest)
        return digest


@dataclasses.dataclass(frozen=True)
class Batch:
    """Sawtooth's atomic batch of transactions.

    If one transaction in the batch fails, the whole batch is rejected and
    none of it reaches a block (Section 5.6).
    """

    batch_id: str
    transactions: typing.Tuple[Transaction, ...]
    submitter: str

    @classmethod
    def wrap(cls, transactions: typing.Sequence[Transaction], submitter: str) -> "Batch":
        """Wrap transactions into a batch with a fresh id."""
        if not transactions:
            raise ValueError("a batch needs at least one transaction")
        return cls(
            batch_id=f"b{next(_batch_counter)}",
            transactions=tuple(transactions),
            submitter=submitter,
        )

    @property
    def size_bytes(self) -> int:
        """Wire size: transaction bytes plus a fixed envelope."""
        return 64 + sum(tx.size_bytes for tx in self.transactions)

    @property
    def payload_count(self) -> int:
        """Total payloads across all member transactions."""
        return sum(len(tx.payloads) for tx in self.transactions)

    def canonical_tuple(self) -> tuple:
        """Stable tuple for content hashing."""
        return (self.batch_id, self.submitter, tuple(tx.canonical_tuple() for tx in self.transactions))
