"""Merkle trees over transaction lists.

Block headers commit to their transactions through a Merkle root, which
chain validation and the strict oracles recompute. The tree duplicates
the last node on odd levels (Bitcoin-style), so any list length works.
"""

from __future__ import annotations

import typing

from repro.crypto.hashing import hash_bytes, leaf_hash


class MerkleTree:
    """A static Merkle tree built from a list of hashable leaves."""

    def __init__(self, leaves: typing.Sequence[object]) -> None:
        # leaf_hash serves domain objects' memoized digests, so the
        # trees built per replica/validation share each leaf's encoding.
        self.leaf_hashes = [leaf_hash(leaf) for leaf in leaves]
        self._levels = self._build(self.leaf_hashes)

    @staticmethod
    def _pair_hash(left: str, right: str) -> str:
        return hash_bytes((left + right).encode("ascii"))

    @classmethod
    def _build(cls, leaf_hashes: typing.List[str]) -> typing.List[typing.List[str]]:
        if not leaf_hashes:
            return [[hash_bytes(b"empty-merkle-tree")]]
        levels = [list(leaf_hashes)]
        while len(levels[-1]) > 1:
            current = levels[-1]
            if len(current) % 2 == 1:
                current = current + [current[-1]]
            parents = [
                cls._pair_hash(current[i], current[i + 1]) for i in range(0, len(current), 2)
            ]
            levels.append(parents)
        return levels

    @property
    def root(self) -> str:
        """The Merkle root hash."""
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self.leaf_hashes)
