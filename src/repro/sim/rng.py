"""Seeded random-number streams.

Every stochastic component (each network link, each client thread, each
consensus engine) draws from its own named stream derived from one master
seed. Adding a component therefore never perturbs the draws of existing
components, which keeps repetition-to-repetition comparisons meaningful.
"""

from __future__ import annotations

import hashlib
import random


class RngRegistry:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: dict = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed is a hash of ``(master_seed, name)``, so streams
        are independent and stable across runs.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]
