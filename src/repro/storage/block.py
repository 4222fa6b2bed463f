"""Blocks and block headers.

Every block-based system model (BitShares, Fabric, Quorum, Sawtooth, Diem)
produces these blocks; Corda is block-free and bypasses this module. A
block commits to its transactions through a Merkle root and to its
predecessor through the parent hash, so chains are tamper evident. The
blocks replicas seal from decided proposals compute both digests only
when something reads them: chain validation, the invariant oracles.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.crypto.hashing import GENESIS_HASH, hash_object
from repro.crypto.merkle import MerkleTree
from repro.storage.transaction import Transaction


@dataclasses.dataclass(frozen=True)
class BlockHeader:
    """The hashed part of a block."""

    height: int
    parent_hash: str
    merkle_root: str
    proposer: str
    timestamp: float
    tx_count: int

    def canonical_tuple(self) -> tuple:
        """Stable tuple for content hashing."""
        return (
            self.height,
            self.parent_hash,
            self.merkle_root,
            self.proposer,
            self.timestamp,
            self.tx_count,
        )


class MerkleRoot:
    """The Merkle root of one transaction tuple, built on first read.

    A decided proposal holds one, and every replica that seals the
    proposal shares it: the tree is built at most once per proposal,
    and not at all when nothing reads a block header. It holds the
    transactions, not the proposal, so a sealed block does not keep its
    proposal alive. (Fabric's read/write sets are not on the proposal:
    ``FabricSystem.rwsets`` holds them until the block is final.)
    """

    __slots__ = ("transactions", "_value", "_verified")

    def __init__(self, transactions: typing.Tuple[Transaction, ...]) -> None:
        self.transactions = transactions
        self._value: typing.Optional[str] = None
        self._verified: typing.Optional[bool] = None

    @property
    def value(self) -> str:
        """The root hash."""
        root = self._value
        if root is None:
            root = self._value = MerkleTree(self.transactions).root
        return root

    def verify(self) -> bool:
        """Whether an independent rebuild of the tree gives :attr:`value`.

        The verdict is memoized: transactions and value are fixed, so
        every replica's block sealed from this root shares one rebuild.
        """
        verdict = self._verified
        if verdict is None:
            verdict = self._verified = MerkleTree(self.transactions).root == self.value
        return verdict


class Block:
    """A sealed block: header plus transaction list.

    A block built from an explicit header (``Block(header, txs)`` or
    :meth:`seal`) links to its predecessor by ``header.parent_hash``. A
    block a replica seals from a decided proposal (:meth:`linked`) links
    by reference to its parent block instead, and builds its header and
    hash on first read: nothing in a run without checking reads either,
    so such a run computes no digest at all. ``height``, ``proposer``
    and ``timestamp`` are plain attributes on both kinds and never
    force a hash.
    """

    __slots__ = (
        "height", "proposer", "timestamp", "transactions", "parent",
        "_root", "_header", "_hash", "_merkle_ok",
    )

    def __init__(self, header: BlockHeader, transactions: typing.Sequence[Transaction]) -> None:
        if header.tx_count != len(transactions):
            raise ValueError(
                f"header tx_count {header.tx_count} != {len(transactions)} transactions"
            )
        self.height = header.height
        self.proposer = header.proposer
        self.timestamp = header.timestamp
        self.transactions = tuple(transactions)
        #: The parent block of a parent-linked block (``None`` here and
        #: at a linked chain's first block).
        self.parent: typing.Optional[Block] = None
        self._root: typing.Optional[MerkleRoot] = None
        self._header: typing.Optional[BlockHeader] = header
        self._hash: typing.Optional[str] = None
        self._merkle_ok: typing.Optional[bool] = None

    @classmethod
    def seal(
        cls,
        height: int,
        parent_hash: str,
        transactions: typing.Sequence[Transaction],
        proposer: str,
        timestamp: float,
        merkle_root: typing.Optional[str] = None,
    ) -> "Block":
        """Build a block with an explicit header, computing the Merkle
        root over ``transactions`` unless the caller supplies it."""
        if merkle_root is None:
            merkle_root = MerkleTree(transactions).root
        header = BlockHeader(
            height=height,
            parent_hash=parent_hash,
            merkle_root=merkle_root,
            proposer=proposer,
            timestamp=timestamp,
            tx_count=len(transactions),
        )
        return cls(header, transactions)

    @classmethod
    def linked(
        cls,
        parent: typing.Optional["Block"],
        root: MerkleRoot,
        proposer: str,
        timestamp: float,
    ) -> "Block":
        """Seal ``root.transactions`` on top of ``parent`` (``None``:
        height 0), with header and hash left unbuilt until read."""
        block = cls.__new__(cls)
        block.height = 0 if parent is None else parent.height + 1
        block.proposer = proposer
        block.timestamp = timestamp
        block.transactions = root.transactions
        block.parent = parent
        block._root = root
        block._header = None
        block._hash = None
        block._merkle_ok = None
        return block

    @property
    def header(self) -> BlockHeader:
        """The hashed part of the block (built once, on first read)."""
        header = self._header
        if header is None:
            parent = self.parent
            header = self._header = BlockHeader(
                height=self.height,
                parent_hash=GENESIS_HASH if parent is None else parent.block_hash,
                merkle_root=self._root.value,
                proposer=self.proposer,
                timestamp=self.timestamp,
                tx_count=len(self.transactions),
            )
        return header

    @property
    def block_hash(self) -> str:
        """Digest of the header (computed once, on first read)."""
        digest = self._hash
        if digest is None:
            # Walk back to the nearest hashed ancestor, then hash forward:
            # each header then reads a parent hash that is already there,
            # so reading the head of a long unread chain never recurses.
            pending = [self]
            block = self.parent
            while block is not None and block._hash is None:
                pending.append(block)
                block = block.parent
            for block in reversed(pending):
                block._hash = hash_object(block.header)
            digest = self._hash
        return digest

    def follows(self, head: typing.Optional["Block"]) -> bool:
        """Whether this block links to ``head`` (``None``: the chain's
        start). A parent-linked block compares references, which implies
        equal hashes without computing them."""
        if self._root is not None:
            return self.parent is head
        return self.header.parent_hash == (GENESIS_HASH if head is None else head.block_hash)

    @property
    def is_empty(self) -> bool:
        """Whether the block carries no transactions."""
        return not self.transactions

    @property
    def payload_count(self) -> int:
        """Total payloads across the block's transactions."""
        return sum(len(tx.payloads) for tx in self.transactions)

    @property
    def size_bytes(self) -> int:
        """Wire size: transactions plus a header envelope."""
        return 512 + sum(tx.size_bytes for tx in self.transactions)

    def verify_merkle_root(self) -> bool:
        """Recompute the Merkle root and compare with the header.

        The verdict is memoized: header and transaction tuple are fixed
        at construction, so the re-verification every replica's append
        and every strict ``--check`` chain pass performs collapses to
        one tree build per block object. A block sealed from a shared
        :class:`MerkleRoot` (:meth:`linked`) carries that root's value in
        its header, so while it still holds the root's transactions it
        takes the root's verdict: one rebuild per distinct root, however
        many replicas seal it.
        """
        verdict = self._merkle_ok
        if verdict is None:
            root = self._root
            if root is not None and self.transactions is root.transactions:
                verdict = root.verify()
            else:
                verdict = MerkleTree(self.transactions).root == self.header.merkle_root
            self._merkle_ok = verdict
        return verdict

    def __repr__(self) -> str:
        return (
            f"Block(height={self.height}, txs={len(self.transactions)}, "
            f"hash={self.block_hash[:12]})"
        )
