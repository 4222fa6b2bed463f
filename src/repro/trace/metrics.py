"""Counters, gauges and log-scale histograms for the tracing subsystem.

The :class:`MetricsRegistry` keys every metric by ``(system, node, name)``
so the same instrument ("net.latency") aggregates separately per system
and per node while staying trivially joinable across either axis.
Histograms use the streaming path's log-scale buckets (2.6 % wide),
which is the right shape for the quantities the simulator produces:
latencies and sizes spanning four to six orders of magnitude.
"""

from __future__ import annotations

import math
import typing

# The module, not the package: the trace layer needs the bucket scheme
# only, not the stream accumulators (or what they import).
from repro.stream.histogram import LogHistogram


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount}")
        self.value += amount

    def snapshot(self) -> dict:
        """JSON-ready state."""
        return {"value": self.value}


class Gauge:
    """A last-value instrument that also tracks its extremes."""

    __slots__ = ("value", "max_value", "min_value", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = -math.inf
        self.min_value = math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value
        self.updates += 1
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value

    def merge(self, last: float, low: float, high: float, updates: int) -> None:
        """Record ``updates`` levels at once: their extremes ``low`` and
        ``high`` and the last one, ``last``. Leaves the state that one
        :meth:`set` per level would."""
        self.value = last
        self.updates += updates
        if high > self.max_value:
            self.max_value = high
        if low < self.min_value:
            self.min_value = low

    def snapshot(self) -> dict:
        """JSON-ready state."""
        if self.updates == 0:
            return {"value": 0.0, "max": 0.0, "min": 0.0, "updates": 0}
        return {
            "value": self.value,
            "max": self.max_value,
            "min": self.min_value,
            "updates": self.updates,
        }


class Histogram(LogHistogram):
    """A :class:`~repro.stream.histogram.LogHistogram` that also keeps an
    exact running sum, so snapshots report the mean.

    Buckets are the streaming path's: about 2.6 % wide, with percentiles
    exact to one bucket and clamped into the observed ``[min, max]``.
    Values at or below zero land in the underflow count.
    """

    __slots__ = ("sum",)

    def __init__(self) -> None:
        super().__init__()
        self.sum = 0.0

    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value``."""
        LogHistogram.record(self, value, count)
        self.sum += value * count

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations."""
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> dict:
        """JSON-ready state; ``buckets`` lists ``(upper_bound, count)``
        pairs in ascending order, each bucket covering ``[low, upper)``."""
        empty = not self.total
        return {
            "count": self.total,
            "mean": self.mean,
            "min": 0.0 if empty else self.min_value,
            "max": 0.0 if empty else self.max_value,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "underflow": self.underflow,
            "buckets": [
                (self.bucket_bounds(index)[1], self.counts[index])
                for index in sorted(self.counts)
            ],
        }


#: One metric key: (system, node, name).
MetricKey = typing.Tuple[str, str, str]


class MetricsRegistry:
    """Get-or-create registry of instruments keyed by (system, node, name)."""

    def __init__(self) -> None:
        self._counters: typing.Dict[MetricKey, Counter] = {}
        self._gauges: typing.Dict[MetricKey, Gauge] = {}
        self._histograms: typing.Dict[MetricKey, Histogram] = {}

    def counter(self, name: str, system: str = "", node: str = "") -> Counter:
        """The counter for a key, created on first use."""
        key = (system, node, name)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, system: str = "", node: str = "") -> Gauge:
        """The gauge for a key, created on first use."""
        key = (system, node, name)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(self, name: str, system: str = "", node: str = "") -> Histogram:
        """The histogram for a key, created on first use."""
        key = (system, node, name)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        return histogram

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> dict:
        """All instruments, JSON-ready, keys flattened to strings."""

        def flatten(metrics: typing.Dict[MetricKey, typing.Any]) -> dict:
            return {
                "/".join(part for part in key if part) or key[2]: metric.snapshot()
                for key, metric in sorted(metrics.items())
            }

        return {
            "counters": flatten(self._counters),
            "gauges": flatten(self._gauges),
            "histograms": flatten(self._histograms),
        }
