"""Fixed-seed scenario runner backing the hot-path seed-equivalence suite.

The hot-path optimizations (kernel dispatch, network routing, canonical
hashing, client send loop) are only admissible if they leave every
observable result byte-identical for a fixed seed. This module defines
the reference scenarios and a normalizer; the golden files under
``goldens/`` were captured from the pre-optimization code by running
``scripts/capture_perf_goldens.py``, and ``test_seed_equivalence.py``
re-runs the scenarios against the live code and compares.

Traces are compared through a canonical digest rather than stored
verbatim: spans drop their ``wall_us`` attribute (host-clock noise) and
both record kinds are sorted, so the digest is insensitive to list
order (the delivery-side trace fix legitimately moves when ``net.*``
records are appended) but sensitive to any change in record content,
timestamps included.

Golden provenance: the initial capture ran against the pre-optimization
code, and the optimized code was verified byte-identical against it with
one audited exception — the delivery-side trace fix means messages still
in flight at the simulation deadline no longer appear delivered, which
removed exactly 2 (fabric-keyvalue-wan) and 6 (quorum-banking)
``net.deliver`` events plus their ``net.latency`` histogram entries.
Plain and instrumented *results*, all spans, and every other metric were
bit-equal. The committed goldens were then re-captured with the fix in
place so they pin the corrected semantics.

They were re-captured once more when the streaming accumulators became
the only measurement path, with this audited delta in the results only:
each repetition gained its ``latency_histogram``, ``mean_fls`` moved by
at most 2.9e-15 relative (an exact Shewchuk sum instead of a naive
one), and ``p50_fls``/``p95_fls``/``p99_fls`` moved by at most 1.2 %
(a histogram bucket's midpoint instead of the nearest-rank sample;
one bucket is 2.6 %). Counts, TPS, durations, resilience reports,
metrics snapshots and trace digests were bit-equal.

They were re-captured a third time when the sim core was deduplicated
(one traced and one untraced dispatch loop, one per-route network
routine, one histogram). The deduplication alone passed against the
previous goldens unchanged; the re-capture then took two metric fixes,
with this audited delta in the instrumented metrics only. A cancelled
timer's pop now counts in ``sim.timers_cancelled`` instead of
``sim.dispatches``: dispatches fell by exactly that counter's value
(fabric-keyvalue-wan 37157 -> 36121 with 1036 cancelled, quorum-banking
43326 -> 42394 with 932; corda-keyvalue cancels none and gains no
counter), and the two now sum to the ``sim.queue_depth`` gauge's
updates. Trace histograms moved from factor-2 buckets to the streaming
path's 2.6 % buckets, so every histogram's ``buckets`` layout and its
``p50``/``p99`` changed (quorum-banking ``client.fls`` p99 2.097 s,
above its 1.147 s max, became 1.147 s). Plain and instrumented results,
trace digests, histogram count/min/max/mean/underflow and every other
counter and gauge were bit-equal.

They were re-captured a fourth time when the generator processes were
replaced by callbacks. The conversion alone passed against the previous
goldens unchanged. Then ``Event`` was deleted, and with it the
shutdown event each client scheduled per phase at the phase's end,
which nothing waited on: one dispatch fewer per client and phase. The
audited delta is in the instrumented metrics only: ``sim.dispatches``
and the ``sim.queue_depth`` gauge's ``updates`` fell by exactly clients
x phases (corda-keyvalue 4 x 2 = 8, 7548 -> 7540 dispatches;
fabric-keyvalue-wan 4 x 2 = 8, 36121 -> 36113; quorum-banking 4 x 3 =
12, 42394 -> 42382), and the gauge's ``max``, ``min`` and ``value`` by
at most the client count (the depth no longer includes the pending
shutdown entries: max 42/84/85 -> 38/80/81, min 4/13/27 -> 2/9/23,
value 4/16/49 -> 3/14/49). Plain and instrumented results, trace
digests and every other metric were bit-equal.
"""

from __future__ import annotations

import hashlib
import json
import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.net.latency import EUROPEAN_WAN_LATENCY
from repro.storage.transaction import reset_id_counters
from repro.trace.config import TraceConfig
from repro.trace.tracer import Tracer

#: The fixed-seed scenarios: one jittered-WAN run (exercises the FIFO
#: clamp and per-message RNG draws), one constant-latency block system
#: (the jitter-free fast path) and one block-free system (Corda's
#: notary/vault path). Every scenario runs twice — plain, and with a
#: full tracer plus strict invariant checking — matching the paper
#: pipeline's --trace/--check modes.
CASES: typing.Tuple[dict, ...] = (
    {
        "name": "fabric-keyvalue-wan",
        "config": dict(
            system="fabric", iel="KeyValue", rate_limit=50, scale=0.03,
            repetitions=1, seed=2, latency=EUROPEAN_WAN_LATENCY,
        ),
    },
    {
        "name": "quorum-banking",
        "config": dict(
            system="quorum", iel="BankingApp", rate_limit=25, scale=0.05,
            repetitions=1, seed=4,
        ),
    },
    {
        "name": "corda-keyvalue",
        "config": dict(
            system="corda_os", iel="KeyValue", rate_limit=20, scale=0.03,
            repetitions=1, seed=6,
        ),
    },
)


def canonical_json(value: object) -> str:
    """Deterministic JSON rendering used for digests and golden files."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def normalized_trace(tracer: Tracer) -> dict:
    """Order-insensitive, wall-clock-free summary of a tracer's records."""
    spans = []
    for span in tracer.spans:
        attrs = {k: v for k, v in span.attrs.items() if k != "wall_us"}
        spans.append({
            "name": span.name, "cat": span.category, "node": span.node,
            "start": span.start, "end": span.end, "attrs": attrs,
        })
    events = [record.to_dict() for record in tracer.events]
    spans.sort(key=canonical_json)
    events.sort(key=canonical_json)
    by_name: typing.Dict[str, int] = {}
    for record in spans + events:
        by_name[record["name"]] = by_name.get(record["name"], 0) + 1
    digest = hashlib.sha256(
        canonical_json({"spans": spans, "events": events}).encode("utf-8")
    ).hexdigest()
    return {
        "digest": digest,
        "span_count": len(spans),
        "event_count": len(events),
        "records_by_name": by_name,
        "dropped_records": tracer.dropped_records,
    }


def run_case(case: dict) -> dict:
    """Run one scenario plain and instrumented; return the observables."""
    reset_id_counters()
    plain = BenchmarkRunner().run(BenchmarkConfig(**case["config"]))

    reset_id_counters()
    tracer = Tracer(TraceConfig())
    runner = BenchmarkRunner(tracer=tracer, check=True, check_level="strict")
    instrumented = runner.run(BenchmarkConfig(**case["config"]))
    # Close submit->confirm spans of payloads that never confirmed, as
    # the CLI's export path does, so open spans are observable too.
    tracer.drain_open(status="unconfirmed")
    return {
        "plain": {"result": plain.to_dict()},
        "instrumented": {
            "result": instrumented.to_dict(),
            "metrics": tracer.metrics.snapshot(),
            "trace": normalized_trace(tracer),
        },
    }
