"""Point-to-point links between hosts."""

from __future__ import annotations

import random

from repro.net.host import Host
from repro.net.latency import LatencyModel, LoopbackLatency


class Link:
    """The path between two hosts: propagation latency plus serialisation.

    Endpoints on the same host communicate over a loopback link, which is
    how the paper's Docker deployment behaves (several containers share a
    server).
    """

    def __init__(self, src: Host, dst: Host, latency_model: LatencyModel) -> None:
        self.src = src
        self.dst = dst
        if src is dst:
            self.latency_model: LatencyModel = LoopbackLatency()
        else:
            self.latency_model = latency_model

    def delay(self, size_bytes: int, rng: random.Random) -> float:
        """Total one-way delay for a message of ``size_bytes``."""
        propagation = self.latency_model.sample(rng)
        serialization = self.src.serialization_delay(size_bytes)
        return propagation + serialization

    def __repr__(self) -> str:
        return f"Link({self.src.name!r} -> {self.dst.name!r}, {self.latency_model.describe()})"
