"""Tracing configuration: category filters and sampling.

A :class:`TraceConfig` decides *what* a :class:`~repro.trace.tracer.Tracer`
records. Categories partition the instrumentation hooks by layer —
``sim`` (the kernel, which records only metrics), ``net`` (message events), ``consensus``
(protocol rounds/phases), ``chain`` (block finality), ``iel`` (payload
execution), ``storage`` (block persistence), ``client`` (per-transaction
submit→confirm spans), ``bench`` (phase windows), ``faults``
(injected failure actions) and ``search`` (capacity-search probes, on
the wall clock). Sampling is
deterministic — a hash of the record key, not an RNG draw — so a traced
run stays reproducible and two runs with the same seed sample the same
transactions.
"""

from __future__ import annotations

import dataclasses
import typing
import zlib

#: Every category the built-in hooks emit, in layer order.
CATEGORIES: typing.Tuple[str, ...] = (
    "sim",
    "net",
    "consensus",
    "chain",
    "iel",
    "storage",
    "client",
    "bench",
    "faults",
    "search",
)

#: Resolution of the deterministic sampling hash.
_SAMPLE_BUCKETS = 1_000_000


@dataclasses.dataclass(frozen=True)
class TraceConfig:
    """What a tracer records.

    ``categories=None`` records everything; otherwise only the named
    categories. ``sample_rate`` thins high-cardinality per-key spans
    (the client's per-transaction spans); structural spans and metrics
    are never sampled. ``max_records`` bounds memory; once either the
    span or the event list reaches it, further records are counted as
    dropped.
    """

    categories: typing.Optional[typing.FrozenSet[str]] = None
    sample_rate: float = 1.0
    max_records: int = 2_000_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {self.sample_rate}")
        if self.categories is not None:
            unknown = set(self.categories) - set(CATEGORIES)
            if unknown:
                raise ValueError(
                    f"unknown trace categories {sorted(unknown)}; known: {list(CATEGORIES)}"
                )

    def wants(self, category: str) -> bool:
        """Whether records of ``category`` should be kept."""
        return self.categories is None or category in self.categories

    def sampled(self, key: str) -> bool:
        """Deterministic sampling decision for a per-key record."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        bucket = zlib.crc32(key.encode("utf-8")) % _SAMPLE_BUCKETS
        return bucket < self.sample_rate * _SAMPLE_BUCKETS

    @classmethod
    def from_spec(
        cls,
        categories: typing.Optional[str] = None,
        sample_rate: float = 1.0,
    ) -> "TraceConfig":
        """Build a config from CLI-style inputs (``"net,consensus"``)."""
        parsed: typing.Optional[typing.FrozenSet[str]] = None
        if categories:
            parsed = frozenset(part.strip() for part in categories.split(",") if part.strip())
        return cls(categories=parsed, sample_rate=sample_rate)
