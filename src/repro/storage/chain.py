"""Append-only hash-linked chains."""

from __future__ import annotations

import typing

from repro.crypto.hashing import GENESIS_HASH
from repro.storage.block import Block


class ChainValidationError(Exception):
    """A block violated the chain's linkage or ordering invariants."""


class Chain:
    """One node's copy of the block chain.

    Appends are validated: heights must be consecutive, each block must
    link to the head (by reference for parent-linked blocks, by parent
    hash otherwise), Merkle roots must verify. This is each node model's
    persistent ledger; the paper's "transaction persisted in all nodes"
    condition is a condition over all replicas' chains.
    """

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self._blocks: typing.List[Block] = []

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def height(self) -> int:
        """Height of the head block (-1 for an empty chain)."""
        return len(self._blocks) - 1

    @property
    def head(self) -> typing.Optional[Block]:
        """The most recent block, or ``None``."""
        return self._blocks[-1] if self._blocks else None

    @property
    def head_hash(self) -> str:
        """Hash of the head block (genesis sentinel when empty)."""
        return self._blocks[-1].block_hash if self._blocks else GENESIS_HASH

    def append(self, block: Block, verify_merkle: bool = True) -> None:
        """Validate linkage and append ``block``.

        Height and linkage are always checked; a unique block hash
        follows from them, since the hashed header holds the height. The
        Merkle root is verified by default — a block whose transaction
        list was swapped behind an intact header would otherwise append
        silently — but costs a hash per transaction, so callers
        appending blocks they just sealed themselves (the node commit
        path) pass ``verify_merkle=False``. A failed append
        leaves the chain unmodified.
        """
        expected_height = len(self._blocks)
        if block.height != expected_height:
            raise ChainValidationError(
                f"{self.owner}: expected height {expected_height}, got {block.height}"
            )
        if not block.follows(self.head):
            raise ChainValidationError(
                f"{self.owner}: parent hash mismatch at height {block.height}"
            )
        if verify_merkle and not block.verify_merkle_root():
            raise ChainValidationError(
                f"{self.owner}: bad merkle root at height {block.height}"
            )
        self._blocks.append(block)

    def block_at(self, height: int) -> Block:
        """The block at ``height``."""
        return self._blocks[height]

    def block_by_hash(self, block_hash: str) -> typing.Optional[Block]:
        """Look a block up by its hash (a scan that hashes every block)."""
        return next((block for block in self._blocks if block.block_hash == block_hash), None)

    def blocks(self) -> typing.Iterator[Block]:
        """Iterate blocks from genesis to head."""
        return iter(self._blocks)

    def total_transactions(self) -> int:
        """Number of transactions across all blocks."""
        return sum(len(block.transactions) for block in self._blocks)

    def total_payloads(self) -> int:
        """Number of payloads across all blocks."""
        return sum(block.payload_count for block in self._blocks)

    def validate(self) -> None:
        """Re-check the whole chain's linkage (tamper-evidence check)."""
        parent = GENESIS_HASH
        for height, block in enumerate(self._blocks):
            if block.height != height:
                raise ChainValidationError(f"height gap at {height}")
            if block.header.parent_hash != parent:
                raise ChainValidationError(f"broken linkage at height {height}")
            if not block.verify_merkle_root():
                raise ChainValidationError(f"bad merkle root at height {height}")
            parent = block.block_hash

    def same_prefix(self, other: "Chain") -> bool:
        """Whether the shorter chain is a prefix of the longer (consistency)."""
        for mine, theirs in zip(self._blocks, other._blocks):
            if mine.block_hash != theirs.block_hash:
                return False
        return True
