"""Simulated network substrate.

Hosts (:mod:`repro.net.host`) model physical servers; endpoints (blockchain
nodes, clients) attach to hosts and exchange messages through a
:class:`~repro.net.network.Network`, which routes each message over the
:class:`~repro.net.link.Link` between the two hosts. Link delay is sampled
from a :mod:`latency model <repro.net.latency>` — including the paper's
netem emulation (normal distribution, mu = 12 ms) — plus a serialisation
term proportional to message size. The network caches each directed
pair's route and computes constant and netem delays on it, with the
draws and floats ``Link.delay`` makes. :mod:`repro.net.partition`
injects partitions and message loss for failure testing.
"""

from repro.net.host import Host
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    LoopbackLatency,
    NetemLatency,
    UniformLatency,
)
from repro.net.link import Link
from repro.net.network import Endpoint, Message, Network
from repro.net.partition import PartitionController

__all__ = [
    "ConstantLatency",
    "Endpoint",
    "Host",
    "LatencyModel",
    "Link",
    "LoopbackLatency",
    "Message",
    "NetemLatency",
    "Network",
    "PartitionController",
    "UniformLatency",
]
