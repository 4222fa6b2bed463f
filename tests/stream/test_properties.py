"""Property tests: the algebraic guarantees the streaming path rests on.

The equivalence suite (test_equivalence.py) checks end-to-end equality
on specific runs; these tests pin the *reasons* it holds for any run —
merge associativity/commutativity, the bucket error bound, exact-sum
order independence, retire idempotence and serialization determinism.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import ExactSum, LogHistogram, RetainingSink
from repro.stream.accumulator import PhaseAccumulator

latencies = st.lists(
    st.floats(min_value=1e-4, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def fill(values):
    h = LogHistogram()
    for v in values:
        h.record(v)
    return h


class TestMergeAlgebra:
    @given(latencies, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_any_split_any_order_same_histogram(self, values, rng):
        """Recording a multiset split across any number of histograms,
        merged in any order, equals recording it into one."""
        reference = fill(values)
        pieces = []
        remaining = list(values)
        while remaining:
            take = rng.randint(1, len(remaining))
            pieces.append(fill(remaining[:take]))
            remaining = remaining[take:]
        rng.shuffle(pieces)
        assert LogHistogram.merged(pieces) == reference

    @given(latencies, latencies, latencies)
    @settings(max_examples=50, deadline=None)
    def test_associative_and_commutative(self, xs, ys, zs):
        a, b, c = fill(xs), fill(ys), fill(zs)
        left = LogHistogram.merged([LogHistogram.merged([a, b]), c])
        right = LogHistogram.merged([a, LogHistogram.merged([b, c])])
        swapped = LogHistogram.merged([c, a, b])
        assert left == right == swapped


class TestPercentileBounds:
    @given(latencies)
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_q(self, values):
        h = fill(values)
        qs = (1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100)
        results = [h.percentile(q) for q in qs]
        assert results == sorted(results)

    @given(latencies)
    @settings(max_examples=50, deadline=None)
    def test_within_one_bucket_of_exact(self, values):
        """The documented error bound: the histogram percentile is
        within one bucket's relative width of the exact nearest-rank
        percentile of the same sample."""
        h = fill(values)
        ordered = sorted(values)
        width = h.relative_width
        for q in (50, 95, 99):
            exact = ordered[math.ceil(q / 100.0 * len(ordered)) - 1]
            approx = h.percentile(q)
            assert exact / width <= approx <= exact * width


class TestExactSum:
    @given(latencies, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_order_and_split_independent(self, values, rng):
        """Any accumulation order and any merge grouping produce the
        same correctly rounded value — the property that makes streamed
        MFLS independent of client/thread/worker merge order."""
        direct = ExactSum()
        for v in values:
            direct.add(v)
        shuffled = list(values)
        rng.shuffle(shuffled)
        left, right = ExactSum(), ExactSum()
        for i, v in enumerate(shuffled):
            (left if i % 2 else right).add(v)
        left.merge(right)
        assert left.value() == direct.value() == math.fsum(values)


def client_with_pending_payload(listen_deadline):
    """A client whose "Set" phase has one payload, ``p1``, in flight."""
    from repro.coconut.client import CoconutClient
    from repro.coconut.config import BenchmarkConfig
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=0)
    config = BenchmarkConfig(system="fabric", iel="KeyValue", rate_limit=10)
    client = CoconutClient("client-0", sim, config, gateway_id="gw")
    client.in_flight["Set"] = {}
    accumulator = client.stream.begin_phase("Set")
    client._listen_deadline["Set"] = listen_deadline
    accumulator.on_send(0.0)
    client.in_flight["Set"]["p1"] = 0.0
    client._payload_phase["p1"] = "Set"
    return client, accumulator


class TestRetireIdempotence:
    def test_client_ignores_double_receipt(self):
        """A retired payload's late duplicate receipt must not be
        folded twice. ``_record_end`` drops the payload->phase mapping
        at retire time, so the second call is a no-op."""
        client, accumulator = client_with_pending_payload(listen_deadline=100.0)
        client._record_end("p1", "received")
        snapshot = accumulator.to_dict()
        client._record_end("p1", "received")
        assert accumulator.to_dict() == snapshot
        assert accumulator.received == 1

    def test_receipt_after_teardown_counts_late(self):
        """A payload still pending at phase teardown is spilled once and
        its entry dropped; a receipt that arrives afterwards is counted
        as late, not folded in."""
        client, accumulator = client_with_pending_payload(listen_deadline=-1.0)
        sink = RetainingSink()
        client.stream.sink = sink
        assert client.finish_phase("Set") == 1
        assert client.in_flight["Set"] == {}
        client._record_end("p1", "received")
        assert client.ignored_late_receipts == 1
        assert accumulator.received == 0
        assert [(r.payload_id, r.phase, r.start_time, r.end_time, r.status, r.invalid)
                for r in sink.records] == [("p1", "Set", 0.0, None, "pending", False)]


class TestDeterministicSerialization:
    def test_25_seeds_same_state(self):
        """For each seed, any insertion order of the same sample
        serializes to identical accumulator state."""
        for seed in range(25):
            rng = random.Random(seed)
            events = [
                (i, rng.uniform(0.0, 10.0), rng.uniform(1e-3, 5.0))
                for i in range(rng.randint(1, 60))
            ]
            states = []
            for ordering in range(3):
                shuffled = list(events)
                random.Random(seed * 100 + ordering).shuffle(shuffled)
                accumulator = PhaseAccumulator("Set")
                for i, start, latency in shuffled:
                    accumulator.on_send(start)
                    accumulator.on_resolve(start, start + latency, "received")
                states.append(
                    (accumulator.to_dict(), accumulator.histogram.to_dict())
                )
            assert states[0] == states[1] == states[2], f"seed {seed} diverged"
