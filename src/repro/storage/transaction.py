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

import itertools
import typing

from repro.crypto.hashing import tuple_digest

#: A payload's canonical arguments: ``(name, value)`` pairs sorted by name.
Args = typing.Tuple[typing.Tuple[str, object], ...]

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


class _Fields:
    """Equality, hashing and pickling over the constructor fields
    ``_FIELDS``, in order. Compares as a frozen dataclass does: equal
    only to an instance of the same class with equal fields."""

    __slots__ = ()
    _FIELDS: typing.ClassVar[typing.Tuple[str, ...]] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._FIELDS])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == typing.cast(_Fields, other)._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        # Rebuilt through __init__, on every pickle protocol.
        return (self.__class__, self._values())


class Payload(_Fields):
    """One IEL function invocation submitted by a client.

    A ``__slots__`` class with a plain ``__init__``, as
    :class:`~repro.net.Message` is: a run builds one per offered
    payload, and a frozen dataclass paid an ``object.__setattr__`` call
    per field. Treat instances as immutable; no code assigns a field
    after construction (``tests/storage/test_immutability.py``).
    Equality and hashing compare the fields, as the frozen dataclass
    did, because a :class:`~repro.net.Message` hashes its payload.
    """

    __slots__ = ("payload_id", "client_id", "iel", "function", "args", "size_bytes")
    _FIELDS = __slots__

    def __init__(
        self,
        payload_id: str,
        client_id: str,
        iel: str,
        function: str,
        args: Args,
        size_bytes: int = 128,
    ) -> None:
        self.payload_id = payload_id
        self.client_id = client_id
        self.iel = iel
        self.function = function
        self.args = args
        self.size_bytes = size_bytes

    @classmethod
    def create(
        cls,
        client_id: str,
        iel: str,
        function: str,
        args: typing.Union[typing.Mapping[str, object], Args, None] = None,
        size_bytes: int = 128,
    ) -> "Payload":
        """Build a payload with a fresh globally unique id.

        ``args`` is either a mapping, whose items are sorted here, or a
        tuple of ``(name, value)`` pairs already sorted by name (what
        :meth:`~repro.coconut.workload.WorkloadPlan.payload_for` yields),
        which is stored as it is. Either way :attr:`args` ends up the
        same canonical tuple. The id counter is read from the module on
        every call: :func:`reset_id_counters` rebinds it.
        """
        if args.__class__ is not tuple:
            args = tuple(sorted(args.items())) if args else ()
        return cls(f"p{next(_payload_counter)}", client_id, iel, function, args, size_bytes)

    def arg(self, name: str, default: object = None) -> object:
        """Look up one named argument."""
        for key, value in self.args:
            if key == name:
                return value
        return default

    def canonical_tuple(self) -> tuple:
        """Stable tuple for content hashing."""
        return (self.payload_id, self.client_id, self.iel, self.function, self.args)


class Transaction(_Fields):
    """An atomic unit ordered by consensus.

    ``payloads`` has length 1 for single-operation systems and up to 100
    for BitShares multi-operation transactions. Atomicity: if any payload
    fails during execution, the whole transaction is discarded.

    A ``__slots__`` class with a plain ``__init__``, like
    :class:`Payload`: a run builds one per submission and holds every
    transaction it offered. ``size_bytes`` (the wire size) is computed
    once at construction and ``_digest`` caches :attr:`content_hash`;
    neither takes part in equality or hashing, which compare the four
    constructor fields. The cached digest stays valid because no code
    assigns a field after construction
    (``tests/storage/test_immutability.py``).
    """

    __slots__ = ("tx_id", "payloads", "submitter", "kind", "size_bytes", "_digest")
    _FIELDS = ("tx_id", "payloads", "submitter", "kind")

    def __init__(
        self,
        tx_id: str,
        payloads: typing.Tuple[Payload, ...],
        submitter: str,
        kind: str,
    ) -> None:
        self.tx_id = tx_id
        self.payloads = payloads
        self.submitter = submitter
        self.kind = kind
        # Wire size: payload bytes plus a fixed envelope. A plain loop:
        # a comprehension would add a frame to every wrap.
        size = 96
        for payload in payloads:
            size += payload.size_bytes
        self.size_bytes = size
        self._digest: typing.Optional[str] = None

    @classmethod
    def wrap(cls, payloads: typing.Sequence[Payload], submitter: str, kind: str = "generic") -> "Transaction":
        """Wrap payloads into a transaction with a fresh id."""
        if not payloads:
            raise ValueError("a transaction needs at least one payload")
        return cls(f"tx{next(_tx_counter)}", tuple(payloads), submitter, kind)

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
            digest = self._digest = tuple_digest(self)
        return digest


class Batch(_Fields):
    """Sawtooth's atomic batch of transactions.

    If one transaction in the batch fails, the whole batch is rejected and
    none of it reaches a block (Section 5.6). A ``__slots__`` class with
    a plain ``__init__``, like :class:`Transaction`. ``size_bytes`` (the
    wire size: transaction bytes plus a fixed envelope) and
    ``payload_count`` (the payloads across all member transactions) are
    computed once at construction, as :class:`Transaction`'s size is,
    and take no part in equality or hashing, which compare the three
    constructor fields.
    """

    __slots__ = ("batch_id", "transactions", "submitter", "size_bytes", "payload_count")
    _FIELDS = ("batch_id", "transactions", "submitter")

    def __init__(
        self, batch_id: str, transactions: typing.Tuple[Transaction, ...], submitter: str
    ) -> None:
        self.batch_id = batch_id
        self.transactions = transactions
        self.submitter = submitter
        size = 64
        count = 0
        for transaction in transactions:
            size += transaction.size_bytes
            count += len(transaction.payloads)
        self.size_bytes = size
        self.payload_count = count

    @classmethod
    def wrap(cls, transactions: typing.Sequence[Transaction], submitter: str) -> "Batch":
        """Wrap transactions into a batch with a fresh id."""
        if not transactions:
            raise ValueError("a batch needs at least one transaction")
        return cls(f"b{next(_batch_counter)}", tuple(transactions), submitter)

    def canonical_tuple(self) -> tuple:
        """Stable tuple for content hashing."""
        return (self.batch_id, self.submitter, tuple(tx.canonical_tuple() for tx in self.transactions))
