"""Versioned key-value world state with MVCC validation.

Fabric's execute-order-validate pipeline simulates transactions against a
snapshot, records a read/write set, orders the transaction and only then
validates that every read version is still current (Section 5.4: stale
transactions are *still appended to the chain*, flagged invalid, and never
reach the world state). Order-execute systems (Quorum, Diem, Sawtooth,
BitShares) use the same store but apply writes directly at execution time.

Every state carries a :attr:`WorldState.lineage` token naming the sequence
of decided blocks that produced its content, so replicas can tell that
their states are identical without comparing them.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass
class ReadWriteSet:
    """The reads (with observed versions) and writes of one simulation."""

    reads: typing.Dict[str, int] = dataclasses.field(default_factory=dict)
    writes: typing.Dict[str, object] = dataclasses.field(default_factory=dict)

    def record_read(self, key: str, version: int) -> None:
        """Remember that ``key`` was read at ``version``."""
        if key not in self.reads:
            self.reads[key] = version

    def record_write(self, key: str, value: object) -> None:
        """Remember a pending write."""
        self.writes[key] = value


#: Version number reported for keys that do not exist.
MISSING_VERSION = 0


class WorldState:
    """A key-value store where every key carries a monotonic version."""

    def __init__(self) -> None:
        self._data: typing.Dict[str, typing.Tuple[object, int]] = {}
        self.commit_count = 0
        self.invalidated_count = 0
        #: Which history produced this content: ``0`` for the empty state,
        #: a token handed out by block application
        #: (:meth:`repro.chains.base.BaseNode.record_block`), or ``None``
        #: once anything else has written. Block application is
        #: deterministic, so two states with the same token hold the same
        #: keys, values and versions.
        self.lineage: typing.Optional[int] = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> typing.Optional[object]:
        """Current value of ``key`` (``None`` if absent)."""
        entry = self._data.get(key)
        return entry[0] if entry else None

    def version(self, key: str) -> int:
        """Current version of ``key`` (:data:`MISSING_VERSION` if absent)."""
        entry = self._data.get(key)
        return entry[1] if entry else MISSING_VERSION

    def get_versioned(self, key: str) -> typing.Tuple[typing.Optional[object], int]:
        """``(value, version)`` for ``key``."""
        entry = self._data.get(key)
        return entry if entry else (None, MISSING_VERSION)

    def set(self, key: str, value: object) -> int:
        """Write directly (order-execute path); returns the new version."""
        self.lineage = None
        new_version = self.version(key) + 1
        self._data[key] = (value, new_version)
        return new_version

    def keys(self) -> typing.Iterator[str]:
        """Iterate all keys (Corda's vault-scan path iterates these)."""
        return iter(self._data)

    def apply(self, rwset: ReadWriteSet) -> bool:
        """Validate then apply a read/write set (validate phase).

        The MVCC check: every read version must still be current.
        Returns ``True`` when applied; on stale reads nothing is written
        and ``False`` is returned (the transaction is marked invalid but,
        as in Fabric, remains on the chain).
        """
        # Versions are read and bumped inline rather than through
        # version()/set(): every replica applies every transaction here.
        data = self._data
        for key, version in rwset.reads.items():
            entry = data.get(key)
            if (entry[1] if entry else MISSING_VERSION) != version:
                self.invalidated_count += 1
                return False
        self.lineage = None
        for key, value in rwset.writes.items():
            entry = data.get(key)
            data[key] = (value, (entry[1] if entry else MISSING_VERSION) + 1)
        self.commit_count += 1
        return True

    def block_diff(self, keys: typing.Iterable[str]) -> typing.Dict[str, typing.Tuple[object, int]]:
        """``key -> (value, version)`` now, for each of ``keys`` in order:
        a block's net effect when ``keys`` are the keys it wrote, in
        first-touch order."""
        data = self._data
        return {key: data[key] for key in keys}

    def apply_block_diff(
        self,
        writes: typing.Dict[str, typing.Tuple[object, int]],
        commits: int,
        invalidated: int,
        lineage: int,
    ) -> None:
        """Replay a block another state with the same lineage applied:
        its :meth:`block_diff`, its commit and invalidation counts, and
        the lineage it left.

        Equal lineage means equal keys, values and versions, so every
        MVCC check comes out as it did there and the diff lands exactly
        where per-transaction :meth:`apply` would: updating a key keeps
        its position and new keys arrive in first-touch order.
        """
        self._data.update(writes)
        self.commit_count += commits
        self.invalidated_count += invalidated
        self.lineage = lineage

    def snapshot_versions(self) -> typing.Dict[str, int]:
        """A copy of every key's version (test helper)."""
        return {key: version for key, (__, version) in self._data.items()}
