"""Content hashing over a canonical encoding.

Blocks, transactions and states are plain Python structures; hashing them
requires a stable byte encoding. We use a small canonical encoder (sorted
dict keys, explicit type tags) feeding SHA-256, so equal values always hash
equal and different values collide only with SHA-256 probability.
"""

from __future__ import annotations

import hashlib
import typing

#: The parent-hash of the first block in every chain.
GENESIS_HASH = "0" * 64


def _encode(value: object, out: typing.List[bytes]) -> None:
    """Append a canonical, type-tagged encoding of ``value`` to ``out``."""
    if value is None:
        out.append(b"n")
    elif isinstance(value, bool):
        out.append(b"b1" if value else b"b0")
    elif isinstance(value, int):
        out.append(b"i" + str(value).encode("ascii") + b";")
    elif isinstance(value, float):
        out.append(b"f" + repr(value).encode("ascii") + b";")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s" + str(len(data)).encode("ascii") + b":")
        out.append(data)
    elif isinstance(value, bytes):
        out.append(b"y" + str(len(value)).encode("ascii") + b":")
        out.append(value)
    elif isinstance(value, (list, tuple)):
        out.append(b"l" + str(len(value)).encode("ascii") + b":")
        for item in value:
            _encode(item, out)
        out.append(b";")
    elif isinstance(value, dict):
        out.append(b"d" + str(len(value)).encode("ascii") + b":")
        for key in sorted(value, key=repr):
            _encode(key, out)
            _encode(value[key], out)
        out.append(b";")
    elif hasattr(value, "canonical_tuple"):
        # Domain objects expose a canonical_tuple() for hashing.
        out.append(b"o")
        _encode(value.canonical_tuple(), out)
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


def canonical_bytes(value: object) -> bytes:
    """Return the canonical byte encoding of ``value``."""
    out: typing.List[bytes] = []
    _encode(value, out)
    return b"".join(out)


def hash_bytes(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def hash_object(value: object) -> str:
    """SHA-256 hex digest of the canonical encoding of ``value``."""
    return hash_bytes(canonical_bytes(value))


def _append_text(items: tuple, out: typing.List[str]) -> bool:
    """Append the encoding of tuple ``items`` to ``out`` as text; False
    when an item is not exactly a ``str``, an ``int`` or such a tuple."""
    out.append(f"l{len(items)}:")
    for item in items:
        kind = type(item)
        if kind is str:
            size = len(item) if item.isascii() else len(item.encode("utf-8"))
            out.append(f"s{size}:{item}")
        elif kind is int:
            out.append(f"i{item};")
        elif kind is not tuple or not _append_text(item, out):
            return False
    out.append(";")
    return True


def canonical_text(items: tuple) -> typing.Optional[str]:
    """``canonical_bytes(items)`` as text when every item of the tuple is
    exactly a ``str``, an ``int`` (a ``bool`` is neither) or such a
    tuple, else ``None``.

    Formats with :func:`_encode`'s tags but without its per-value type
    dispatch; UTF-8 encodes a concatenation piece by piece, so
    ``canonical_text(items).encode("utf-8") == canonical_bytes(items)``.
    """
    out: typing.List[str] = []
    return "".join(out) if _append_text(items, out) else None


def tuple_digest(value: object) -> str:
    """:func:`hash_object` of a domain object, through
    :func:`canonical_text` of its ``canonical_tuple()`` when that holds
    only ``str``, ``int`` and tuples, else through :func:`hash_object`."""
    text = canonical_text(value.canonical_tuple())
    if text is None:
        return hash_object(value)
    return hash_bytes(("o" + text).encode("utf-8"))


def leaf_hash(value: object) -> str:
    """:func:`hash_object`, served from the value's cached digest when it
    has one.

    Transactions, the leaves of every block's Merkle tree, memoize their
    digest as ``content_hash``; chain re-validation and Merkle
    construction go through here so each transaction is canonically
    encoded at most once per process instead of once per validation pass.
    """
    cached = getattr(value, "content_hash", None)
    return cached if cached is not None else hash_object(value)
