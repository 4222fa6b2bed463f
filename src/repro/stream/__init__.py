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

Names are imported on first use (PEP 562): the spill sinks load
only when a run attaches one.
"""

from repro._exports import lazy_exports

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "BASE": "repro.stream.histogram",
    "ClientStream": "repro.stream.accumulator",
    "ExactSum": "repro.stream.accumulator",
    "LogHistogram": "repro.stream.histogram",
    "PhaseAccumulator": "repro.stream.accumulator",
    "RESOLUTION": "repro.stream.histogram",
    "RecordSink": "repro.stream.spill",
    "ResilienceAccumulator": "repro.stream.accumulator",
    "RetainingSink": "repro.stream.spill",
    "SpillSink": "repro.stream.spill",
    "read_spill": "repro.stream.spill",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
