"""Message routing between endpoints.

A :class:`Network` owns the endpoint registry, builds links lazily from a
default latency model and delivers :class:`Message` objects by scheduling
``endpoint.on_message(msg)`` after the sampled link delay. Delivery order
between two endpoints is FIFO (TCP-like): a message never overtakes an
earlier message on the same directed pair, even when the jittered latency
samples would reorder them.
"""

from __future__ import annotations

import typing

from repro.net.host import Host
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.link import Link
from repro.net.partition import PartitionController
from repro.trace.tracer import Instruments

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: Why a message was dropped: a crashed host on either side, a crashed
#: endpoint on either side (at send or in flight), an isolation or cut
#: pair, or a random loss draw.
DROP_CAUSES = ("host_down", "endpoint_down", "partition", "loss")

#: Attribute names of the ``net.send``/``net.drop`` and ``net.deliver``
#: trace events, shared by every record (see ``EventRecord``).
_SEND_KEYS = ("dst", "kind", "size")
_DELIVER_KEYS = ("src", "kind", "latency")


class Message:
    """An envelope routed by the network.

    A ``__slots__`` class rather than a frozen dataclass: construction is
    one hot path of every send, and frozen dataclasses pay an
    ``object.__setattr__`` call per field. The public surface — field
    names, defaults, equality, hashing and repr — matches the previous
    frozen-dataclass definition exactly. Treat instances as immutable;
    the network itself is the only writer (it stamps ``dst`` on the
    shared wire record of a broadcast fan-out before each delivery).
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes")

    def __init__(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: object = None,
        size_bytes: int = 256,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Message:
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.kind == other.kind
            and self.payload == other.payload
            and self.size_bytes == other.size_bytes
        )

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.kind, self.payload, self.size_bytes))

    def __repr__(self) -> str:
        return f"Message({self.kind} {self.src}->{self.dst})"


class Endpoint:
    """Anything addressable on the network (node, client, orderer...)."""

    def __init__(self, endpoint_id: str) -> None:
        self.endpoint_id = endpoint_id
        self.network: typing.Optional["Network"] = None
        self.host: typing.Optional[Host] = None

    def on_message(self, message: Message) -> None:
        """Handle a delivered message. Subclasses override."""
        raise NotImplementedError(f"{type(self).__name__} does not handle messages")

    def send(self, dst: str, kind: str, payload: object = None, size_bytes: int = 256) -> None:
        """Send a message through the attached network."""
        if self.network is None:
            raise RuntimeError(f"endpoint {self.endpoint_id!r} is not attached to a network")
        self.network.send(Message(self.endpoint_id, dst, kind, payload, size_bytes))


class _Route:
    """Per-directed-pair routing state, built lazily on first send.

    One route-table lookup recovers everything :meth:`Network._transmit`
    needs — destination endpoint, link, both hosts, the FIFO clock (an
    attribute here, not a per-message dict get/set with a fresh tuple
    key), the source uplink's bandwidth, and the latency model's
    precomputed delay (jitter-free models) or ``(mean, jitter)`` (the
    netem normal model).
    """

    __slots__ = (
        "endpoint", "link", "src_host", "dst_host", "fifo_clock",
        "bandwidth", "const_delay", "normal",
    )

    def __init__(self, endpoint: Endpoint, link: Link) -> None:
        self.endpoint = endpoint
        self.link = link
        self.src_host = link.src
        self.dst_host = link.dst
        self.fifo_clock = 0.0
        self.bandwidth = link.src.bandwidth_bps
        self.const_delay = link.latency_model.fixed_delay()
        self.normal = link.latency_model.normal_parameters()


class Network:
    """The routing fabric connecting all endpoints of one deployment."""

    def __init__(
        self,
        sim: "Simulator",
        default_latency: typing.Optional[LatencyModel] = None,
        name: str = "net",
    ) -> None:
        self.sim = sim
        self.name = name
        self.default_latency = default_latency or ConstantLatency(0.0004)
        self.partitions = PartitionController()
        self._endpoints: typing.Dict[str, Endpoint] = {}
        self._links: typing.Dict[typing.Tuple[str, str], Link] = {}
        #: Routing records keyed ``src -> dst -> route``. Each source's
        #: table is created on attach; its routes are built on first use.
        self._routes: typing.Dict[str, typing.Dict[str, _Route]] = {}
        #: Bound once so the per-message schedule() call does not
        #: allocate a fresh bound method (let alone a closure).
        self._deliver_cb = self._deliver
        self._rng = sim.rng.stream(f"network:{name}")
        self._trace = Instruments(
            "net",
            sent=("counter", "net.sent", name, ""),
            bytes=("counter", "net.bytes", name, ""),
            latency=("histogram", "net.latency", name, ""),
            dropped=("counter", "net.dropped", name, ""),
        )
        self.messages_sent = 0
        self.messages_dropped = 0
        #: ``messages_dropped`` split by cause (see :data:`DROP_CAUSES`);
        #: the values always sum to ``messages_dropped``.
        self.drops_by_cause: typing.Dict[str, int] = dict.fromkeys(DROP_CAUSES, 0)
        #: Endpoints taken down by a crash fault. A down endpoint neither
        #: sends nor receives; messages already in flight toward it are
        #: dropped at delivery time, like a TCP connection reset.
        self._down_endpoints: typing.Set[str] = set()
        #: Flat latency surcharge (seconds) applied to every delivery while
        #: a ``latency_surge`` fault is active. 0.0 means untouched delays.
        self.extra_latency = 0.0

    def attach(self, endpoint: Endpoint, host: Host) -> None:
        """Register an endpoint as running on ``host``."""
        if endpoint.endpoint_id in self._endpoints:
            raise ValueError(f"duplicate endpoint id {endpoint.endpoint_id!r}")
        endpoint.network = self
        endpoint.host = host
        host.attach(endpoint.endpoint_id)
        self._endpoints[endpoint.endpoint_id] = endpoint
        self._routes[endpoint.endpoint_id] = {}

    def endpoint(self, endpoint_id: str) -> Endpoint:
        """Look up an endpoint by id."""
        return self._endpoints[endpoint_id]

    def endpoint_ids(self) -> typing.List[str]:
        """All registered endpoint ids, in attach order."""
        return list(self._endpoints)

    def link_between(self, src: str, dst: str) -> Link:
        """Return (creating if needed) the link between two endpoints' hosts."""
        key = (src, dst)
        if key not in self._links:
            src_host = self._endpoints[src].host
            dst_host = self._endpoints[dst].host
            assert src_host is not None and dst_host is not None
            self._links[key] = Link(src_host, dst_host, self.default_latency)
        return self._links[key]

    def set_endpoint_down(self, endpoint_id: str) -> None:
        """Mark an endpoint as crashed (no sends, deliveries dropped)."""
        if endpoint_id not in self._endpoints:
            raise KeyError(f"unknown endpoint {endpoint_id!r}")
        self._down_endpoints.add(endpoint_id)

    def set_endpoint_up(self, endpoint_id: str) -> None:
        """Bring a crashed endpoint back."""
        self._down_endpoints.discard(endpoint_id)

    def endpoint_is_up(self, endpoint_id: str) -> bool:
        """Whether an endpoint (and the host carrying it) is reachable."""
        if endpoint_id in self._down_endpoints:
            return False
        host = self._endpoints[endpoint_id].host
        return host is None or host.is_up

    def _drop(self, message: Message, cause: str) -> None:
        """Account for one dropped message, lost to ``cause``."""
        self.messages_dropped += 1
        self.drops_by_cause[cause] += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            trace = self._trace.bind(tracer)
            if trace.wanted:
                trace.event("net.drop", message.src, _SEND_KEYS,
                            (message.dst, message.kind, message.size_bytes))
                trace.dropped.inc()

    def _route_for(self, src: str, dst: str) -> _Route:
        """Build (and cache) the routing record for one directed pair."""
        if dst not in self._endpoints:
            raise KeyError(f"unknown destination {dst!r}")
        route = _Route(self._endpoints[dst], self.link_between(src, dst))
        self._routes[src][dst] = route
        return route

    def send(self, message: Message) -> None:
        """Route ``message``, scheduling delivery after the link delay."""
        self._transmit(message, message.src, message.dst)
        self.messages_sent += 1

    def broadcast(
        self,
        src: str,
        dsts: typing.Iterable[str],
        kind: str,
        payload: object = None,
        size_bytes: int = 256,
    ) -> int:
        """Send the same message to every destination except ``src``.

        All destinations are validated (in the same single pass that
        filters out ``src``) before the first send, so a typo'd peer
        list fails atomically (KeyError, nothing sent) instead of after
        a partial fan-out. Returns the number of messages sent.

        One wire record is shared by every destination of the logical
        broadcast; :meth:`_deliver` stamps its ``dst`` per delivery.
        Each destination then takes the same per-route path as
        :meth:`send`, in target order, so RNG draws, schedule order and
        trace records match one ``send`` per destination.
        """
        endpoints = self._endpoints
        targets = []
        unknown = None
        for dst in dsts:
            if dst == src:
                continue
            if dst in endpoints:
                targets.append(dst)
            elif unknown is None:
                unknown = [dst]
            else:
                unknown.append(dst)
        if unknown:
            raise KeyError(
                f"unknown destination(s) {unknown!r} in broadcast from {src!r}"
            )
        if not targets:
            return 0
        message = Message(src, "", kind, payload, size_bytes)
        self.messages_sent += len(targets)
        transmit = self._transmit
        for dst in targets:
            transmit(message, src, dst)
        return len(targets)

    def _transmit(self, message: Message, src: str, dst: str) -> None:
        """Route one message over the directed pair ``src -> dst``.

        Drops it if either side is down or a partition cuts the pair;
        otherwise samples the link delay, adds any ``extra_latency``,
        clamps the arrival behind the pair's previous message (FIFO, like
        TCP) and schedules :meth:`_deliver`.
        """
        route = self._routes[src].get(dst) or self._route_for(src, dst)
        down = self._down_endpoints
        partitions = self.partitions
        if not route.src_host.is_up or not route.dst_host.is_up:
            cause = "host_down"
        elif down and (src in down or dst in down):
            cause = "endpoint_down"
        elif partitions.impaired and not partitions.allows(src, dst, self._rng):
            # A refusal that no cut explains was a loss draw.
            cause = "partition" if partitions.cuts(src, dst) else "loss"
        else:
            cause = None
        if cause is not None:
            message.dst = dst  # a broadcast's shared record: _drop reads dst
            self._drop(message, cause)
            return
        size = message.size_bytes
        # Propagation + serialisation with the floats and RNG draws
        # link.delay makes: no draw for a jitter-free model, one gauss()
        # clamped at 0 as max(0.0, x) clamps it for a normal model; any
        # other model samples through the link.
        if route.const_delay is not None:
            delay = route.const_delay + size / route.bandwidth
        elif route.normal is not None:
            mean, jitter = route.normal
            delay = self._rng.gauss(mean, jitter)
            delay = (delay if delay > 0.0 else 0.0) + size / route.bandwidth
        else:
            delay = route.link.delay(size, self._rng)
        if self.extra_latency:
            delay += self.extra_latency
        sim = self.sim
        now = sim.now
        arrival = now + delay
        if arrival < route.fifo_clock:
            arrival = route.fifo_clock
        else:
            route.fifo_clock = arrival
        latency = arrival - now
        tracer = sim.tracer
        if tracer.enabled:
            trace = self._trace.bind(tracer)
            if trace.wanted:
                trace.event("net.send", src, _SEND_KEYS, (dst, message.kind, size))
                trace.sent.inc()
                trace.bytes.inc(size)
        sim.schedule(latency, self._deliver_cb, route.endpoint, message, dst, latency)

    def _deliver(self, endpoint: Endpoint, message: Message, dst: str, latency: float) -> None:
        """Hand a message to ``dst`` — unless it crashed meanwhile.

        ``dst`` is stamped on the message first: a broadcast shares one
        record across its destinations, and deliveries run one at a time
        on the event loop, with handlers reading the message
        synchronously. The up-check re-runs at delivery time so that a
        crash drops messages already in flight toward the endpoint.
        Delivery-side trace records — the ``net.deliver`` event and the
        ``net.latency`` histogram — are emitted here rather than at send
        time, so a message dropped in flight never shows up as delivered
        and the trace agrees with ``messages_dropped``.
        """
        message.dst = dst
        # endpoint_is_up, inlined: a down endpoint outranks its host.
        if dst in self._down_endpoints:
            self._drop(message, "endpoint_down")
            return
        host = endpoint.host
        if host is not None and not host.is_up:
            self._drop(message, "host_down")
            return
        tracer = self.sim.tracer
        if tracer.enabled:
            trace = self._trace.bind(tracer)
            if trace.wanted:
                trace.event("net.deliver", dst, _DELIVER_KEYS,
                            (message.src, message.kind, round(latency, 9)))
                trace.latency.record(latency)
        endpoint.on_message(message)
