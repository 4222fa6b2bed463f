"""Deterministic log-bucketed latency histogram (HDR-style).

The streaming metrics path cannot keep every finalization latency, but
the paper's tail percentiles (p50/p95/p99) need the distribution, not
just a sum. This histogram trades a bounded relative error for constant
memory: values land in logarithmic buckets whose boundaries are
``BASE ** (index / RESOLUTION)``, so every bucket spans the same
*relative* width (``BASE ** (1 / RESOLUTION)``, about 2.6% with the
defaults) — the HDR-histogram idea, with the sub-bucket machinery
dropped because a sparse dict over a fixed bucket function is simpler
and merges trivially.

Design properties the test suite pins:

* **Bucketing is a pure function of the value** — no histogram state
  feeds back into bucket choice, so recording the same multiset in any
  order, split across any number of histograms, produces the same
  counts: merges are associative and commutative across clients,
  threads and :mod:`repro.parallel` workers.
* **Percentiles are exact to one bucket** — the reported quantile is
  the geometric midpoint of the bucket holding the nearest-rank sample,
  clamped into the exactly-tracked ``[min, max]`` observed range, so it
  never strays further than one bucket's relative width from the value
  the exact (full-list) path reports.
* **Serialization is canonical** — ``to_dict`` emits counts keyed by
  bucket index in ascending order; equal histograms serialize to equal
  JSON bytes.
"""

from __future__ import annotations

import math
import typing

#: Bucket boundaries are powers of ``BASE ** (1 / RESOLUTION)``.
BASE = 10.0
#: Buckets per decade: 90 gives a relative bucket width of
#: ``10 ** (1/90) - 1`` ~ 2.6%, comfortably inside the run-to-run noise
#: of any real latency measurement while keeping a 1 ms..1000 s range in
#: at most 540 occupied buckets.
RESOLUTION = 90


class LogHistogram:
    """A mergeable, constant-memory latency histogram."""

    __slots__ = (
        "base",
        "resolution",
        "counts",
        "total",
        "underflow",
        "min_value",
        "max_value",
        "_scale",
    )

    def __init__(self, base: float = BASE, resolution: int = RESOLUTION) -> None:
        if base <= 1.0:
            raise ValueError(f"base must be > 1, got {base}")
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        self.base = base
        self.resolution = resolution
        #: Sparse bucket index -> sample count.
        self.counts: typing.Dict[int, int] = {}
        self.total = 0
        #: Samples <= 0 (a latency cannot be, but the histogram must not
        #: lose mass if one ever is).
        self.underflow = 0
        self.min_value: typing.Optional[float] = None
        self.max_value: typing.Optional[float] = None
        self._scale = resolution / math.log(base)

    # ------------------------------------------------------------------
    # Recording

    def bucket_index(self, value: float) -> int:
        """The bucket a positive value lands in."""
        return math.floor(math.log(value) * self._scale)

    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value``."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.total += count
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if value <= 0.0:
            self.underflow += count
            return
        # :meth:`bucket_index`, inline: this is every sample's path.
        index = math.floor(math.log(value) * self._scale)
        self.counts[index] = self.counts.get(index, 0) + count

    # ------------------------------------------------------------------
    # Reading

    def bucket_bounds(self, index: int) -> typing.Tuple[float, float]:
        """The ``[low, high)`` value range of one bucket."""
        return (
            self.base ** (index / self.resolution),
            self.base ** ((index + 1) / self.resolution),
        )

    def bucket_value(self, index: int) -> float:
        """A bucket's representative value: its geometric midpoint."""
        return self.base ** ((index + 0.5) / self.resolution)

    @property
    def relative_width(self) -> float:
        """One bucket's relative span (the percentile error bound)."""
        return self.base ** (1.0 / self.resolution)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, exact to one bucket.

        Mirrors :func:`repro.coconut.metrics.percentile`: nearest rank
        (not interpolated), 0.0 for an empty histogram. The returned
        value is the holding bucket's geometric midpoint clamped into
        the observed ``[min, max]``, so a single-valued distribution
        reports that value exactly.
        """
        if self.total == 0:
            return 0.0
        if not 0.0 < q <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {q}")
        rank = math.ceil(q / 100.0 * self.total)
        rank = max(1, rank)
        if rank <= self.underflow:
            return min(0.0, self.min_value if self.min_value is not None else 0.0)
        seen = self.underflow
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                value = self.bucket_value(index)
                if self.min_value is not None:
                    value = max(value, self.min_value)
                if self.max_value is not None:
                    value = min(value, self.max_value)
                return value
        # Unreachable: counts sum to total - underflow.
        raise AssertionError("histogram counts out of sync with total")

    def percentiles(
        self, qs: typing.Sequence[float]
    ) -> typing.Tuple[float, ...]:
        """Several percentiles in one call."""
        return tuple(self.percentile(q) for q in qs)

    # ------------------------------------------------------------------
    # Merging

    def compatible(self, other: "LogHistogram") -> bool:
        """Whether two histograms share one bucket scheme."""
        return self.base == other.base and self.resolution == other.resolution

    def merge(self, other: "LogHistogram") -> None:
        """Fold another histogram into this one (in place)."""
        if not self.compatible(other):
            raise ValueError(
                f"cannot merge histograms with different schemes: "
                f"base {self.base}/resolution {self.resolution} vs "
                f"base {other.base}/resolution {other.resolution}"
            )
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.total += other.total
        self.underflow += other.underflow
        if other.min_value is not None and (
            self.min_value is None or other.min_value < self.min_value
        ):
            self.min_value = other.min_value
        if other.max_value is not None and (
            self.max_value is None or other.max_value > self.max_value
        ):
            self.max_value = other.max_value

    @classmethod
    def merged(cls, histograms: typing.Iterable["LogHistogram"]) -> "LogHistogram":
        """A fresh histogram holding the union of several."""
        histograms = list(histograms)
        if not histograms:
            return cls()
        result = cls(base=histograms[0].base, resolution=histograms[0].resolution)
        for histogram in histograms:
            result.merge(histogram)
        return result

    # ------------------------------------------------------------------
    # (De)serialization

    def to_dict(self) -> typing.Dict[str, object]:
        """Canonical JSON-ready state (ascending bucket order)."""
        return {
            "base": self.base,
            "resolution": self.resolution,
            "counts": {str(index): self.counts[index] for index in sorted(self.counts)},
            "total": self.total,
            "underflow": self.underflow,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, object]) -> "LogHistogram":
        """Inverse of :meth:`to_dict`."""
        histogram = cls(
            base=typing.cast(float, data.get("base", BASE)),
            resolution=typing.cast(int, data.get("resolution", RESOLUTION)),
        )
        for key, count in typing.cast(dict, data.get("counts", {})).items():
            histogram.counts[int(key)] = int(count)
        histogram.total = typing.cast(int, data.get("total", 0))
        histogram.underflow = typing.cast(int, data.get("underflow", 0))
        histogram.min_value = typing.cast(typing.Optional[float], data.get("min"))
        histogram.max_value = typing.cast(typing.Optional[float], data.get("max"))
        return histogram

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LogHistogram(total={self.total}, buckets={len(self.counts)}, "
            f"min={self.min_value}, max={self.max_value})"
        )
