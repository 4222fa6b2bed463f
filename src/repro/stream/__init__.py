"""Memory-bounded streaming metrics (`repro.stream`): how runs are measured.

Retaining one record per payload and post-processing the full list per
phase costs O(offered load) memory and work, the harness's own
scalability ceiling (Gromit, arXiv:2208.11254, makes the general point:
a benchmark is only credible while its own overhead stays flat). Every
run is therefore measured in constant memory: per-phase counters,
running extremes, an exact (Shewchuk-summed) latency total and a
log-bucketed histogram are folded in as each payload resolves, after
which the payload's record is retired. Callers that need the raw
records attach a sink (:class:`SpillSink`, :class:`RetainingSink`).

Equivalence contract (pinned by ``tests/stream/``): for any fixed seed
the accumulators report the same expected/received/failed/invalidated
counts, the same t_fstx/t_lrtx/duration/TPS and the (correctly rounded)
MFLS that a brute-force pass over all retained records gives, and
p50/p95/p99 within one histogram bucket of its nearest-rank values, for
any client/thread/worker merge order.
"""

from repro.stream.accumulator import (
    ClientStream,
    ExactSum,
    PhaseAccumulator,
    ResilienceAccumulator,
)
from repro.stream.histogram import BASE, RESOLUTION, LogHistogram
from repro.stream.spill import RecordSink, RetainingSink, SpillSink, read_spill

__all__ = [
    "BASE",
    "RESOLUTION",
    "ClientStream",
    "ExactSum",
    "LogHistogram",
    "PhaseAccumulator",
    "RecordSink",
    "ResilienceAccumulator",
    "RetainingSink",
    "SpillSink",
    "read_spill",
]
