"""Content-addressed cache of benchmark unit results.

One JSON file per fingerprint (see :mod:`repro.parallel.fingerprint`);
an entry stores the ``UnitResult`` payload, whose phase metrics carry
any per-repetition resilience reports, so a cache hit restores
everything an executor returns for a freshly run unit. Corrupt or
mismatched entries are treated as misses and silently overwritten — the
cache is a pure accelerator, never a source of truth.
"""

from __future__ import annotations

import json
import pathlib
import typing

from repro.coconut.results import UnitResult


class ResultCache:
    """Persists unit results keyed by their content fingerprint."""

    def __init__(self, directory: typing.Union[str, pathlib.Path]) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, fingerprint: str) -> pathlib.Path:
        """File path of one entry."""
        return self.directory / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> typing.Optional[UnitResult]:
        """The cached unit result, or None (counted as a miss)."""
        path = self.path_for(fingerprint)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if data.get("fingerprint") != fingerprint:
            self.misses += 1
            return None
        try:
            result = UnitResult.from_dict(data["unit"])
        except (KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, fingerprint: str, result: UnitResult) -> pathlib.Path:
        """Store one unit; returns the entry's path."""
        payload = {
            "fingerprint": fingerprint,
            "label": result.label,
            "unit": result.to_dict(),
        }
        path = self.path_for(fingerprint)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path

    def __len__(self) -> int:
        return sum(1 for __ in self.directory.glob("*.json"))

    def summary(self) -> str:
        """One-line hit/miss accounting for CLI output."""
        return (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{len(self)} entries in {self.directory}"
        )
