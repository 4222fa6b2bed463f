"""Cryptographic substrate.

Real SHA-256 content hashing and Merkle roots, so tamper evidence is
checked rather than assumed. Signing, notarisation and validation are
not run at all: the paper's performance effects (e.g. Corda OS signing
every transaction on every node, serially) are about their *time*, which
the per-system profiles model (:mod:`repro.chains.profiles`).
"""

from repro.crypto.hashing import hash_bytes, hash_object, GENESIS_HASH
from repro.crypto.merkle import MerkleTree

__all__ = [
    "GENESIS_HASH",
    "MerkleTree",
    "hash_bytes",
    "hash_object",
]
