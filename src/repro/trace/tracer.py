"""Span-based tracing over simulated time.

A :class:`Tracer` collects three record kinds:

* **Spans** — named intervals of simulated time with attributes, either
  lexically scoped (:meth:`Tracer.span`, a context manager) or opened and
  closed across scheduled callbacks (:meth:`Tracer.begin` /
  :meth:`Tracer.end`, keyed by an arbitrary hashable — the natural shape
  for a DES, where a consensus round or a transaction's life is not a
  lexical scope).
* **Events** — instants with attributes (message sent, block appended),
  stored flat in one :class:`EventLog` and read as :class:`EventRecord` objects.
* **Metrics** — counters/gauges/histograms via :attr:`Tracer.metrics`.

The default tracer on every :class:`~repro.sim.kernel.Simulator` is the
module-level :data:`NOOP_TRACER`, whose ``enabled`` flag lets hot paths
skip all instrumentation with a single attribute check — a disabled
trace layer costs one branch per hook. Past that branch, a hot hook goes
through its component's :class:`Instruments`, which resolve the category
filter and the instrument keys once per tracer instead of once per
record.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import time
import typing

from repro.trace.config import TraceConfig
from repro.trace.metrics import MetricsRegistry


@dataclasses.dataclass(init=False)
class SpanRecord:
    """One completed interval of simulated time.

    Slotted by hand, like :class:`~repro.storage.transaction.Transaction`
    (Python 3.9 has no ``dataclass(slots=True)``): a traced run retains
    every record. A slot cannot also carry a class-level default, so
    ``__init__`` is written out and supplies the fresh ``attrs`` dict.
    """

    __slots__ = ("name", "category", "node", "start", "end", "attrs")

    name: str
    category: str
    node: str
    start: float
    end: float
    attrs: typing.Dict[str, object]

    def __init__(self, name: str, category: str, node: str, start: float, end: float,
                 attrs: typing.Optional[typing.Dict[str, object]] = None) -> None:
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end = end
        self.attrs = {} if attrs is None else attrs

    @property
    def duration(self) -> float:
        """Simulated seconds covered by the span."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class EventRecord:
    """One instantaneous occurrence, as a reader of :class:`EventLog` sees it.

    The log stores no records: it builds one per read from its flat
    storage. A record keeps its attributes as two tuples, ``keys`` (the
    one key tuple every event of its hook shares) and ``values``;
    :attr:`attrs` builds the dict, in ``keys`` order, on each read.
    Equality and ``repr`` read it too, so both are what they would be
    for a record holding that dict: two records with the same
    attributes in another order are equal, as their dicts are.
    """

    __slots__ = ("name", "category", "node", "time", "keys", "values")

    def __init__(self, name: str, category: str, node: str, time: float,
                 keys: typing.Tuple[str, ...] = (),
                 values: typing.Tuple[object, ...] = ()) -> None:
        self.name = name
        self.category = category
        self.node = node
        self.time = time
        self.keys = keys
        self.values = values

    @property
    def attrs(self) -> typing.Dict[str, object]:
        """The attributes as a fresh dict, in ``keys`` order."""
        return dict(zip(self.keys, self.values))

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "type": "event",
            "name": self.name,
            "cat": self.category,
            "node": self.node,
            "time": self.time,
            "attrs": self.attrs,
        }

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        that = typing.cast(EventRecord, other)
        return (self.name, self.category, self.node, self.time, self.attrs) == (
            that.name, that.category, that.node, that.time, that.attrs)

    __hash__ = None  # type: ignore[assignment]  # mutable, like an eq dataclass

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(name={self.name!r}, "
                f"category={self.category!r}, node={self.node!r}, "
                f"time={self.time!r}, attrs={self.attrs!r})")


#: An event's ``(name, category, keys)``, shared by every event of its hook.
Kind = typing.Tuple[str, str, typing.Tuple[str, ...]]


class EventLog(collections.abc.Sequence):
    """A tracer's events in one flat list, read as :class:`EventRecord` objects.

    A traced run keeps every event until it is exported, and most are
    per-message ``net.send``/``net.deliver`` events, so an event is no
    object of its own. :meth:`append` extends one list with the event's
    shared :data:`Kind` tuple, its ``node``, its ``time`` and its values,
    and puts the event's start offset in an ``array('Q')``. A
    three-value event then costs six list slots and one offset, 56
    bytes, where a record object and its value tuple cost 152. ``time``
    and the values are kept as the objects the hook passed.

    Reads build records: the log is a read-only sequence (``len``, int
    and negative indexes, slices as lists, iteration), and it compares
    equal to a list or another log holding equal records. The exporters
    sort by :meth:`nodes` and :meth:`times`, which read those fields
    without building a record.
    """

    __slots__ = ("_items", "_starts", "_kinds", "_max_records")

    def __init__(self, max_records: int) -> None:
        # Imported here, not at module level: an untraced run builds no
        # log, and loading the extension module would add to its peak RSS.
        import array

        self._items: typing.List[object] = []
        self._starts = array.array("Q")
        self._kinds: typing.Dict[Kind, Kind] = {}
        self._max_records = max_records

    def kind(self, name: str, category: str, keys: typing.Tuple[str, ...]) -> Kind:
        """The one shared kind tuple for ``(name, category, keys)``."""
        kind = (name, category, keys)
        return self._kinds.setdefault(kind, kind)

    def append(self, kind: Kind, node: str, time: float,
               values: typing.Iterable[object]) -> bool:
        """Append one event; ``False`` (and nothing kept) once the log
        holds ``max_records`` events."""
        starts = self._starts
        if len(starts) >= self._max_records:
            return False
        items = self._items
        starts.append(len(items))
        items += (kind, node, time)
        items += values
        return True

    def _record(self, start: int) -> EventRecord:
        items = self._items
        (name, category, keys), node, time = items[start:start + 3]
        start += 3
        return EventRecord(name, category, node, time, keys,
                           tuple(items[start:start + len(keys)]))

    def nodes(self) -> typing.Iterator[str]:
        """Each event's ``node``, in record order."""
        items = self._items
        return (items[start + 1] for start in self._starts)

    def times(self) -> typing.Iterator[float]:
        """Each event's ``time``, in record order."""
        items = self._items
        return (items[start + 2] for start in self._starts)

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, index: typing.Union[int, slice]) -> typing.Any:
        if isinstance(index, slice):
            return [self._record(start) for start in self._starts[index]]
        return self._record(self._starts[index])

    def __iter__(self) -> typing.Iterator[EventRecord]:
        return map(self._record, self._starts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventLog, list)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({list(self)!r})"


class _NullSpan:
    """Reusable do-nothing context manager for filtered-out spans."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        """Ignore attributes."""


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager backing :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_node", "_attrs", "_start", "_wall")

    def __init__(self, tracer: "Tracer", name: str, category: str, node: str,
                 attrs: typing.Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._node = node
        self._attrs = attrs
        self._start = 0.0
        self._wall = 0.0

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered while the span is open."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_SpanContext":
        self._start = self._tracer.now
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        attrs = self._attrs
        attrs.setdefault("wall_us", round((time.perf_counter() - self._wall) * 1e6, 2))
        self._tracer._append_span(SpanRecord(
            self._name, self._category, self._node,
            self._start, self._tracer.now, attrs,
        ))
        return False


class NoopTracer:
    """The zero-overhead default: records nothing, filters everything."""

    __slots__ = ()

    enabled = False
    metrics: typing.Optional[MetricsRegistry] = None

    def bind_clock(self, clock: typing.Callable[[], float]) -> None:
        """Ignore the clock."""

    def wants(self, category: str) -> bool:
        """Never interested."""
        return False

    def sampled(self, key: str) -> bool:
        """Never sampled."""
        return False

    def span(self, name: str, /, category: str = "", node: str = "",
             **attrs: object) -> _NullSpan:
        """A shared do-nothing context manager."""
        return _NULL_SPAN

    def record_span(self, name: str, /, category: str = "", node: str = "", *,
                    start: float = 0.0, end: float = 0.0, **attrs: object) -> None:
        """Drop the span."""

    def begin(self, key: typing.Hashable, name: str, /, category: str = "",
              node: str = "", at: typing.Optional[float] = None, **attrs: object) -> None:
        """Drop the open."""

    def end(self, key: typing.Hashable, /, at: typing.Optional[float] = None,
            **attrs: object) -> None:
        """Drop the close."""

    def event(self, name: str, /, category: str = "", node: str = "",
              at: typing.Optional[float] = None, **attrs: object) -> None:
        """Drop the event."""


#: The shared disabled tracer every Simulator starts with.
NOOP_TRACER = NoopTracer()


class Tracer:
    """Collects spans, events and metrics for one (or more) simulations.

    The tracer is clock-agnostic until :meth:`bind_clock` hands it a
    ``() -> float`` reading simulated seconds; the hosting simulator does
    this in :meth:`~repro.sim.kernel.Simulator.set_tracer`.

    ``spans`` is a list of :class:`SpanRecord` objects. ``events`` is an
    :class:`EventLog`: every event's fields sit in one flat list, with
    no object per event, and a read builds the :class:`EventRecord`.
    Each is capped at ``config.max_records``; a record past the cap is
    counted in ``dropped_records``.
    """

    enabled = True

    def __init__(self, config: typing.Optional[TraceConfig] = None) -> None:
        self.config = config or TraceConfig()
        self.spans: typing.List[SpanRecord] = []
        self.events = EventLog(self.config.max_records)
        self.metrics = MetricsRegistry()
        self.dropped_records = 0
        self._clock: typing.Callable[[], float] = lambda: 0.0
        self._open: typing.Dict[typing.Hashable, typing.Tuple[
            str, str, str, float, typing.Dict[str, object]]] = {}

    # ------------------------------------------------------------------
    # Clock and filters

    def bind_clock(self, clock: typing.Callable[[], float]) -> None:
        """Use ``clock()`` as the source of simulated time."""
        self._clock = clock

    @property
    def now(self) -> float:
        """Current simulated time per the bound clock."""
        return self._clock()

    def wants(self, category: str) -> bool:
        """Whether this tracer keeps records of ``category``."""
        return self.config.wants(category)

    def sampled(self, key: str) -> bool:
        """Deterministic per-key sampling decision."""
        return self.config.sampled(key)

    # ------------------------------------------------------------------
    # Spans

    def span(self, name: str, /, category: str = "", node: str = "",
             **attrs: object) -> typing.Union[_SpanContext, _NullSpan]:
        """A context manager recording a lexically scoped span.

        ``name`` (like every positional parameter of the record methods)
        is positional-only, so attribute names such as ``key`` or
        ``name`` never collide with the parameters.
        """
        if not self.config.wants(category):
            return _NULL_SPAN
        return _SpanContext(self, name, category, node, attrs)

    def _append_span(self, record: SpanRecord) -> None:
        if len(self.spans) >= self.config.max_records:
            self.dropped_records += 1
            return
        self.spans.append(record)

    def record_span(self, name: str, /, category: str = "", node: str = "", *,
                    start: float, end: float, **attrs: object) -> None:
        """Record a span whose bounds are both already known."""
        if not self.config.wants(category):
            return
        self._append_span(SpanRecord(name, category, node, start, end, attrs))

    def begin(self, key: typing.Hashable, name: str, /, category: str = "",
              node: str = "", at: typing.Optional[float] = None, **attrs: object) -> None:
        """Open a keyed span (no-op if the key is already open)."""
        if not self.config.wants(category) or key in self._open:
            return
        start = self.now if at is None else at
        self._open[key] = (name, category, node, start, attrs)

    def end(self, key: typing.Hashable, /, at: typing.Optional[float] = None,
            **attrs: object) -> None:
        """Close a keyed span (no-op for unknown keys, so callers may
        close unconditionally on every exit path)."""
        opened = self._open.pop(key, None)
        if opened is None:
            return
        name, category, node, start, open_attrs = opened
        if attrs:
            open_attrs.update(attrs)
        self._append_span(SpanRecord(
            name, category, node, start, self.now if at is None else at, open_attrs,
        ))

    def open_span_count(self) -> int:
        """Keyed spans begun but not yet ended (diagnostic)."""
        return len(self._open)

    def drain_open(self, at: typing.Optional[float] = None, **attrs: object) -> int:
        """Close every open keyed span (e.g. transactions that never
        confirmed) and return how many were closed."""
        keys = list(self._open)
        for key in keys:
            self.end(key, at=at, **attrs)
        return len(keys)

    # ------------------------------------------------------------------
    # Events

    def event(self, name: str, /, category: str = "", node: str = "",
              at: typing.Optional[float] = None, **attrs: object) -> None:
        """Record an instantaneous event."""
        if not self.config.wants(category):
            return
        events = self.events
        if not events.append(events.kind(name, category, tuple(attrs)), node,
                             self.now if at is None else at, attrs.values()):
            self.dropped_records += 1


class Instruments:
    """One component's trace hooks for one category, bound once per tracer.

    A component declares its category and the instruments its hooks
    update once, at construction, each as ``attribute=(kind, name,
    system, node)`` with ``kind`` a :class:`MetricsRegistry` method
    (``"counter"``, ``"gauge"`` or ``"histogram"``). A hook then runs,
    with ``_SEND_KEYS = ("dst",)`` defined once in its module::

        tracer = self.sim.tracer
        if tracer.enabled:
            trace = self._trace.bind(tracer)
            if trace.wanted:
                trace.event("net.send", src, _SEND_KEYS, (dst,))
                trace.sent.inc()

    :meth:`bind` resolves the category filter and the instrument keys
    on the first traced use and keeps the result until the tracer
    changes: installing another tracer rebinds on its next use, so its
    records and metrics never reach the old one. A disabled tracer is
    never bound (the ``enabled`` branch stays the hook's only cost).
    """

    __slots__ = ("category", "_specs", "_bound")

    def __init__(self, category: str, **specs: typing.Tuple[str, str, str, str]) -> None:
        self.category = category
        self._specs = specs
        self._bound: typing.Optional[BoundInstruments] = None

    def bind(self, tracer: Tracer) -> "BoundInstruments":
        """The hooks resolved against the enabled ``tracer`` (cached per
        tracer)."""
        bound = self._bound
        if bound is None or bound.tracer is not tracer:
            bound = self._bound = BoundInstruments(tracer, self.category, self._specs)
        return bound


class BoundInstruments:
    """:class:`Instruments` resolved against one tracer.

    ``wanted`` is the tracer's category filter, read once. Each declared
    instrument is an attribute, created in the registry on its first
    read, so an instrument no hook updates never appears in a snapshot.
    :meth:`event` appends to the tracer's :class:`EventLog` through the
    append path :meth:`Tracer.event` uses: bounded by ``max_records``,
    stamped with one clock read. A hook passes its attribute names as
    one module-level tuple and its values as a tuple; the bound hook
    caches each event name's :data:`Kind` tuple, so every event of a
    hook shares one kind and one ``keys`` tuple.
    """

    def __init__(self, tracer: Tracer, category: str,
                 specs: typing.Mapping[str, typing.Tuple[str, str, str, str]]) -> None:
        self.tracer = tracer
        self.wanted = tracer.wants(category)
        self._category = category
        self._specs = specs
        self._log = tracer.events
        self._kinds: typing.Dict[str, Kind] = {}

    def __getattr__(self, attr: str) -> typing.Any:
        # Only reached while the instrument is not yet an attribute.
        if attr.startswith("_") or attr not in self._specs:
            raise AttributeError(attr)
        kind, name, system, node = self._specs[attr]
        instrument = getattr(self.tracer.metrics, kind)(name, system, node)
        setattr(self, attr, instrument)
        return instrument

    def event(self, name: str, node: str, keys: typing.Tuple[str, ...],
              values: typing.Tuple[object, ...]) -> None:
        """Record an instantaneous event of the bound category, now,
        with attributes ``dict(zip(keys, values))``."""
        kind = self._kinds.get(name)
        if kind is None or kind[2] is not keys:
            kind = self._kinds[name] = self._log.kind(name, self._category, keys)
        tracer = self.tracer
        if not self._log.append(kind, node, tracer._clock(), values):
            tracer.dropped_records += 1
