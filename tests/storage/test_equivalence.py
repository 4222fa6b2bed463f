"""The slotted ``Payload``, ``Transaction``, ``Batch`` and ``Receipt``
behave as the frozen dataclasses they replaced.

The ``Ref*`` classes below are those dataclass definitions, reduced to
what the comparison reads. Hypothesis draws field values from small
alphabets, so equal and unequal pairs both occur, and holds equality,
hashing, pickling, ``size_bytes`` and ``content_hash`` to the
references. ``Receipt`` compares by identity, because nothing reads
its equality; its test holds the fields, ``is_success`` and pickling.
``PINNED`` holds digests of fixed objects, built through the same
public constructors and drivers a run uses, as the dataclass code
computed them.
"""

import dataclasses
import pickle
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coconut.bal import BitSharesDriver, SawtoothDriver, SingleTransactionDriver
from repro.crypto.hashing import hash_object, tuple_digest
from repro.storage import Batch, Payload, Receipt, Transaction, TxStatus
from repro.storage.transaction import reset_id_counters


@dataclasses.dataclass(frozen=True)
class RefPayload:
    payload_id: str
    client_id: str
    iel: str
    function: str
    args: typing.Tuple[typing.Tuple[str, object], ...]
    size_bytes: int = 128

    def canonical_tuple(self):
        return (self.payload_id, self.client_id, self.iel, self.function, self.args)


@dataclasses.dataclass(frozen=True)
class RefTransaction:
    tx_id: str
    payloads: typing.Tuple[RefPayload, ...]
    submitter: str
    kind: str

    @property
    def size_bytes(self):
        return 96 + sum(p.size_bytes for p in self.payloads)

    def canonical_tuple(self):
        return (self.tx_id, self.submitter, self.kind,
                tuple([p.canonical_tuple() for p in self.payloads]))


@dataclasses.dataclass(frozen=True)
class RefBatch:
    batch_id: str
    transactions: typing.Tuple[RefTransaction, ...]
    submitter: str

    def canonical_tuple(self):
        return (self.batch_id, self.submitter,
                tuple(tx.canonical_tuple() for tx in self.transactions))


@dataclasses.dataclass(frozen=True)
class RefReceipt:
    payload_id: str
    tx_id: str
    status: TxStatus
    block_height: typing.Optional[int]
    commit_time: float
    detail: str = ""


# Small alphabets, so that two draws are often equal.
names = st.sampled_from(["a", "b", "é"])
arg_values = st.sampled_from(["v", 1, True, None, 2.5, ("t", 0)])
payload_fields = st.tuples(
    names, names, names, names,
    st.lists(st.tuples(st.sampled_from(["key", "value"]), arg_values), max_size=2)
    .map(lambda items: tuple(sorted(dict(items).items()))),
    st.sampled_from([128, 64]),
)
tx_fields = st.tuples(names, st.lists(payload_fields, min_size=1, max_size=3), names, names)
batch_fields = st.tuples(names, st.lists(tx_fields, min_size=1, max_size=3), names)
receipt_fields = st.tuples(
    names, names, st.sampled_from(list(TxStatus)), st.sampled_from([None, 0, 7]),
    st.sampled_from([0.0, 1.5]), st.sampled_from(["", "mvcc"]),
)


def build_tx(fields, tx_class, payload_class):
    tx_id, payloads, submitter, kind = fields
    return tx_class(tx_id, tuple(payload_class(*p) for p in payloads), submitter, kind)


def build_batch(fields, batch_class, tx_class, payload_class):
    batch_id, txs, submitter = fields
    return batch_class(batch_id, tuple(build_tx(t, tx_class, payload_class) for t in txs),
                       submitter)


def round_trips(value):
    """``value`` pickled and unpickled once per protocol (the frozen
    dataclasses pickled on every one)."""
    return [pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]


def assert_same_relations(pairs):
    """``pairs`` holds (slotted, reference) objects built from the same
    fields: equality and hash must agree with the reference's."""
    for new_a, ref_a in pairs:
        assert hash(new_a) == hash(ref_a)
        assert new_a != ref_a and not new_a == ref_a
        for new_b, ref_b in pairs:
            assert (new_a == new_b) == (ref_a == ref_b)
            assert (new_a != new_b) == (ref_a != ref_b)


class TestAgainstTheFrozenDataclasses:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(payload_fields, min_size=1, max_size=4))
    def test_payloads(self, drawn):
        pairs = [(Payload(*f), RefPayload(*f)) for f in drawn]
        assert_same_relations(pairs)
        for new, ref in pairs:
            assert tuple_digest(new) == tuple_digest(ref) == hash_object(ref)
            for copy in round_trips(new):
                assert copy == new and copy.size_bytes == ref.size_bytes
                assert copy.canonical_tuple() == ref.canonical_tuple()

    @settings(max_examples=80, deadline=None)
    @given(st.lists(tx_fields, min_size=1, max_size=4))
    def test_transactions(self, drawn):
        pairs = [(build_tx(f, Transaction, Payload), build_tx(f, RefTransaction, RefPayload))
                 for f in drawn]
        assert_same_relations(pairs)
        for new, ref in pairs:
            assert new.size_bytes == ref.size_bytes
            assert new.content_hash == tuple_digest(ref) == hash_object(ref)
            # Pickled after the digest is memoized, and before.
            for tx in (new, build_tx(drawn[0], Transaction, Payload)):
                for copy in round_trips(tx):
                    assert copy == tx and hash(copy) == hash(tx)
                    assert copy.size_bytes == tx.size_bytes
                    assert copy.content_hash == tx.content_hash

    @settings(max_examples=60, deadline=None)
    @given(st.lists(batch_fields, min_size=1, max_size=3))
    def test_batches(self, drawn):
        pairs = [
            (build_batch(f, Batch, Transaction, Payload),
             build_batch(f, RefBatch, RefTransaction, RefPayload))
            for f in drawn
        ]
        assert_same_relations(pairs)
        for new, ref in pairs:
            assert new.size_bytes == 64 + sum(tx.size_bytes for tx in ref.transactions)
            assert new.payload_count == sum(len(tx.payloads) for tx in ref.transactions)
            assert hash_object(new) == hash_object(ref)
            for copy in round_trips(new):
                assert copy == new and hash_object(copy) == hash_object(new)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(receipt_fields, min_size=1, max_size=4))
    def test_receipts(self, drawn):
        for fields in drawn:
            new, ref = Receipt(*fields), RefReceipt(*fields)
            assert [getattr(new, f.name) for f in dataclasses.fields(ref)] == list(fields)
            assert new.is_success == ref.status.is_success
            for copy in round_trips(new):
                assert [getattr(copy, f.name) for f in dataclasses.fields(ref)] == list(fields)

    def test_keywords_and_defaults(self):
        payload = Payload(payload_id="p", client_id="c", iel="KeyValue", function="Set", args=())
        assert payload.size_bytes == 128
        tx = Transaction(tx_id="t", payloads=(payload,), submitter="c", kind="generic")
        assert tx.size_bytes == 96 + 128
        batch = Batch(batch_id="b", transactions=(tx,), submitter="c")
        assert batch.size_bytes == 64 + tx.size_bytes
        receipt = Receipt(payload_id="p", tx_id="t", status=TxStatus.COMMITTED,
                          block_height=None, commit_time=0.0)
        assert receipt.detail == "" and receipt.is_success


def pinned_examples():
    """Fixed objects, built as a run builds them (fresh id counters)."""
    reset_id_counters()
    kv = [Payload.create("client-0", "KeyValue", "Set",
                         {"key": f"client-0:t0:k{i}", "value": f"value-{i}"})
          for i in range(3)]
    banking = [Payload.create("client-1", "BankingApp", "SendPayment",
                              {"source": f"acc{i}", "destination": f"acc{i + 1}", "amount": i})
               for i in range(100)]
    odd = Payload.create("client-é", "KeyValue", "Set",
                         {"flag": True, "none": None, "rate": 0.5, "key": "k€"}, size_bytes=64)
    single = SingleTransactionDriver("client-0").wrap(kv[:1])
    bitshares = BitSharesDriver("client-1", 100).wrap(banking)
    batch = SawtoothDriver("client-0", 3).wrap(kv)
    generic = Transaction.wrap([odd, kv[1]], submitter="client-é", kind="generic")
    return {
        "payload": kv[0],
        "single": single,
        "bitshares_100": bitshares,
        "sawtooth_batch": batch,
        "generic_encoder": generic,
    }


#: ``hash_object`` of each :func:`pinned_examples` object, and
#: ``content_hash`` of each transaction, as the frozen dataclasses gave
#: them.
PINNED = (
    {
        "payload": "5a23b64b9e769b69dd3de772db38803fd018120598a0c7ffd5b0e149ab164c14",
        "single": "20ee67200aa6a58f27045aaac469dcb943fbce6895c809a1804d28265a06cecc",
        "single.content_hash":
            "20ee67200aa6a58f27045aaac469dcb943fbce6895c809a1804d28265a06cecc",
        "bitshares_100": "f2928ae1d0722efeb1478707e3c8f2f74900d22735dfc2849787bbe9cccaca99",
        "bitshares_100.content_hash":
            "f2928ae1d0722efeb1478707e3c8f2f74900d22735dfc2849787bbe9cccaca99",
        "sawtooth_batch": "c4dc45ee53926bb4c951aa97853dbc97d07fcfe95f97594b49db171139af01e4",
        "generic_encoder": "85aaea580c2f463cbc0bf1bb100adf32ae4e92883247c2f0fe905bc0b79c0ed4",
        "generic_encoder.content_hash":
            "85aaea580c2f463cbc0bf1bb100adf32ae4e92883247c2f0fe905bc0b79c0ed4",
    },
    {"payload": 128, "single": 224, "bitshares_100": 12896, "sawtooth_batch": 736,
     "generic_encoder": 288},
)


def test_digests_match_the_dataclass_code():
    examples = pinned_examples()
    digests = {name: hash_object(value) for name, value in examples.items()}
    digests.update(
        (f"{name}.content_hash", value.content_hash)
        for name, value in examples.items()
        if isinstance(value, Transaction)
    )
    sizes = {name: value.size_bytes for name, value in examples.items()}
    assert (digests, sizes) == PINNED
