"""The per-payload client path: plan pairs, payload ids, wraps, receipts.

``WorkloadPlan.payload_for`` yields the canonical argument pairs that
``Payload.args`` stores, so ``Payload.create`` takes them unsorted; these
tests pin that contract, the BAL's wire sizes, and the late-receipt rule
of ``CoconutClient._record_end``.
"""

import pytest

from repro.coconut.bal import SawtoothDriver, SingleTransactionDriver
from repro.coconut.client import CoconutClient
from repro.coconut.config import BenchmarkConfig
from repro.coconut.workload import WorkloadPlan
from repro.net import Message
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage import Batch, Payload, Receipt, Transaction, TxStatus
from repro.storage.transaction import reset_id_counters
from repro.stream import RetainingSink
from repro.workloads import AccessSpec, WorkloadSpec

#: Every legacy IEL and its phases, in unit order.
LEGACY_UNITS = {
    "DoNothing": ("DoNothing",),
    "KeyValue": ("Set", "Get"),
    "BankingApp": ("CreateAccount", "SendPayment", "Balance"),
}

ZIPFIAN = WorkloadSpec(access=AccessSpec(kind="zipfian", theta=0.9, key_space=20))
KEYVALUE_MIX = WorkloadSpec(mix=(("Get", 1.0), ("Rmw", 1.0), ("Set", 1.0)))
BANKING_MIX = WorkloadSpec(
    mix=(("Balance", 1.0), ("CreateAccount", 1.0), ("SendPayment", 2.0)),
)


def _is_canonical(pairs) -> bool:
    return type(pairs) is tuple and pairs == tuple(sorted(dict(pairs).items()))


class TestPlanPairs:
    @pytest.mark.parametrize("iel", sorted(LEGACY_UNITS))
    def test_legacy_pairs_are_canonical(self, iel):
        plan = WorkloadPlan("client-0", threads=3)
        for phase in LEGACY_UNITS[iel]:
            for __ in range(5):
                for thread in range(3):
                    function, pairs = plan.payload_for(iel, phase, thread)
                    assert function == phase
                    assert _is_canonical(pairs)

    @pytest.mark.parametrize(
        "iel, spec",
        [("KeyValue", ZIPFIAN), ("KeyValue", KEYVALUE_MIX), ("BankingApp", BANKING_MIX)],
        ids=["zipfian", "keyvalue-mix", "banking-mix"],
    )
    def test_spec_pairs_are_canonical(self, iel, spec):
        plan = WorkloadPlan("client-0", threads=2, spec=spec, rng_streams=RngRegistry(5).stream)
        functions = set()
        for phase in LEGACY_UNITS[iel]:
            for __ in range(30):
                for thread in range(2):
                    function, pairs = plan.payload_for(iel, phase, thread)
                    functions.add(function)
                    assert _is_canonical(pairs)
        assert len(functions) > 1

    @pytest.mark.parametrize("iel", sorted(LEGACY_UNITS))
    def test_args_for_is_the_dict_of_the_pairs(self, iel):
        by_dict = WorkloadPlan("client-0", threads=2)
        by_pairs = WorkloadPlan("client-0", threads=2)
        for phase in LEGACY_UNITS[iel]:
            for __ in range(5):
                for thread in range(2):
                    __, pairs = by_pairs.payload_for(iel, phase, thread)
                    assert by_dict.args_for(iel, phase, thread) == dict(pairs)
            assert by_dict.generated_count(phase) == by_pairs.generated_count(phase) == 10

    def test_out_of_range_thread_draws_no_index(self):
        plan = WorkloadPlan("client-0", threads=2)
        with pytest.raises(IndexError):
            plan.payload_for("KeyValue", "Set", 2)
        assert plan.generated_count("Set") == 0
        assert plan.payload_for("KeyValue", "Set", 0) == (
            "Set", (("key", "client-0:t0:k1"), ("value", "value-1")),
        )


class TestPayloadFromPairs:
    def _pair(self, iel, function, args):
        reset_id_counters()
        from_dict = Payload.create("client-0", iel, function, args)
        reset_id_counters()
        from_pairs = Payload.create("client-0", iel, function, tuple(sorted(args.items())))
        return from_dict, from_pairs

    @pytest.mark.parametrize("function, args", [
        ("Set", {"value": "value-1", "key": "client-0:t0:k1"}),
        ("SendPayment", {"source": "a1", "destination": "a2", "amount": 1}),
        ("DoNothing", {}),
    ])
    def test_pairs_and_dict_build_the_same_payload(self, function, args):
        from_dict, from_pairs = self._pair("KeyValue", function, args)
        assert from_dict == from_pairs and hash(from_dict) == hash(from_pairs)
        assert from_dict.args == from_pairs.args
        wrapped = [
            Transaction("tx1", (payload,), "client-0", "generic")
            for payload in (from_dict, from_pairs)
        ]
        assert wrapped[0].content_hash == wrapped[1].content_hash

    def test_id_counter_is_read_after_a_reset(self):
        # reset_id_counters rebinds the module's counter; create must
        # not keep an old one.
        Payload.create("c", "KeyValue", "Get", (("key", "k"),))
        reset_id_counters()
        assert Payload.create("c", "KeyValue", "Get", (("key", "k"),)).payload_id == "p1"


class TestWraps:
    @pytest.mark.parametrize("count, size", [(1, 288), (50, 11_264), (100, 22_464)])
    def test_batch_size_bytes(self, count, size):
        payloads = [
            Payload.create("client-0", "KeyValue", "Set", (("key", f"k{i}"),))
            for i in range(count)
        ]
        batch = SawtoothDriver("client-0", txs_per_batch=count).wrap(payloads)
        assert batch.size_bytes == size == 64 + sum(tx.size_bytes for tx in batch.transactions)
        assert "size_bytes" not in Batch._FIELDS
        rebuilt = Batch(batch.batch_id, batch.transactions, batch.submitter)
        assert rebuilt == batch and rebuilt.size_bytes == size

    def test_single_driver_keeps_the_payload_tuple(self):
        payloads = (Payload.create("client-0", "KeyValue", "Get", (("key", "k"),)),)
        tx = SingleTransactionDriver("client-0").wrap(payloads)
        assert tx.payloads is payloads
        assert (tx.submitter, tx.kind, tx.size_bytes) == ("client-0", "generic", 96 + 128)


def _client_with_pending(listen_deadline: float, sink=None):
    """A client whose "Set" phase has payload ``p1`` in flight since 0.0."""
    sim = Simulator(seed=0)
    config = BenchmarkConfig(system="fabric", iel="KeyValue", rate_limit=10)
    client = CoconutClient("client-0", sim, config, gateway_id="gw")
    client.stream.sink = sink
    client.in_flight["Set"] = {"p1": 0.0}
    accumulator = client.stream.begin_phase("Set")
    accumulator.on_send(0.0)
    client._listen_deadline["Set"] = listen_deadline
    client._payload_phase["p1"] = "Set"
    return sim, client, accumulator


def _receipt(status=TxStatus.COMMITTED) -> Message:
    receipt = Receipt("p1", "tx1", status, 1, 0.0)
    return Message("gw", "client-0", "client/receipt", [receipt], 64)


class TestReceipts:
    def test_receipt_after_the_listen_deadline_counts_late(self):
        sim, client, accumulator = _client_with_pending(listen_deadline=5.0)
        sim.run(until=6.0)
        client.on_message(_receipt())
        assert client.ignored_late_receipts == 1
        assert accumulator.received == 0
        assert client.in_flight["Set"] == {"p1": 0.0}

    def test_receipt_at_the_deadline_resolves(self):
        sim, client, accumulator = _client_with_pending(listen_deadline=5.0)
        sim.run(until=5.0)
        client.on_message(_receipt(TxStatus.INVALIDATED))
        assert client.ignored_late_receipts == 0
        assert (accumulator.received, accumulator.invalidated) == (1, 1)
        assert client.in_flight["Set"] == {} and client._payload_phase == {}

    def test_sink_path_folds_the_same_and_spills(self):
        folded = []
        for sink in (None, RetainingSink()):
            sim, client, accumulator = _client_with_pending(listen_deadline=5.0, sink=sink)
            sim.run(until=2.0)
            client.on_message(_receipt())
            folded.append(accumulator.to_dict())
        assert folded[0] == folded[1]
        assert [(r.payload_id, r.end_time, r.status) for r in sink.records] == [
            ("p1", 2.0, "received"),
        ]
