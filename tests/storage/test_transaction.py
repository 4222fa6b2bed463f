"""Unit tests for payloads, transactions and batches."""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import canonical_bytes, canonical_text, hash_object, tuple_digest
from repro.storage import Batch, Payload, Transaction


def make_payload(function="Set", **args):
    return Payload.create("client-1", "KeyValue", function, args)


class TestPayload:
    def test_ids_are_unique(self):
        a = make_payload(key="k1")
        b = make_payload(key="k2")
        assert a.payload_id != b.payload_id

    def test_arg_lookup(self):
        payload = make_payload(key="k1", value="v1")
        assert payload.arg("key") == "k1"
        assert payload.arg("value") == "v1"
        assert payload.arg("missing") is None
        assert payload.arg("missing", "default") == "default"

    def test_hashable_via_canonical_tuple(self):
        from repro.crypto.hashing import hash_object

        payload = make_payload(key="k1")
        assert hash_object(payload) == hash_object(payload)


class TestTransaction:
    def test_wrap_single_payload(self):
        tx = Transaction.wrap([make_payload()], submitter="client-1")
        assert len(tx.payloads) == 1
        assert tx.submitter == "client-1"

    def test_wrap_empty_rejected(self):
        with pytest.raises(ValueError):
            Transaction.wrap([], submitter="client-1")

    def test_multi_operation_transaction(self):
        # BitShares: up to 100 operations per atomic transaction.
        payloads = [make_payload(key=f"k{i}") for i in range(100)]
        tx = Transaction.wrap(payloads, submitter="client-1", kind="bitshares")
        assert len(tx.payloads) == 100

    def test_size_grows_with_payloads(self):
        small = Transaction.wrap([make_payload()], "c")
        large = Transaction.wrap([make_payload() for __ in range(10)], "c")
        assert large.size_bytes > small.size_bytes

    def test_tx_ids_unique(self):
        a = Transaction.wrap([make_payload()], "c")
        b = Transaction.wrap([make_payload()], "c")
        assert a.tx_id != b.tx_id


class TestBatch:
    def test_wrap_and_payload_count(self):
        txs = [Transaction.wrap([make_payload(), make_payload()], "c") for __ in range(3)]
        batch = Batch.wrap(txs, submitter="c")
        assert len(batch.transactions) == 3
        assert batch.payload_count == 6

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch.wrap([], submitter="c")

    def test_batch_size_includes_members(self):
        txs = [Transaction.wrap([make_payload()], "c") for __ in range(5)]
        batch = Batch.wrap(txs, "c")
        assert batch.size_bytes > sum(tx.size_bytes for tx in txs)


# Ids and names: ASCII, and non-ASCII whose UTF-8 length differs from
# its character count.
texts = st.one_of(st.text(max_size=12), st.text(st.characters(min_codepoint=128, exclude_categories=("Cs",)), max_size=6))
# Argument values: the direct encoder's str and int, and the values only
# the generic encoder handles (bool must stay b1/b0, never an int).
scalars = st.one_of(
    texts,
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
)
arg_values = st.recursive(
    scalars, lambda children: st.lists(children, max_size=3).map(tuple), max_leaves=6
)


@st.composite
def transactions(draw):
    """Transactions of 1-100 payloads with empty and non-empty args."""
    distinct = draw(st.lists(
        st.builds(
            Payload,
            payload_id=texts, client_id=texts, iel=texts, function=texts,
            args=st.dictionaries(texts, arg_values, max_size=4).map(
                lambda args: tuple(sorted(args.items()))
            ),
        ),
        min_size=1, max_size=4,
    ))
    count = draw(st.sampled_from([1, 1, 2, 7, 100]) | st.integers(1, 100))
    payloads = tuple(itertools.islice(itertools.cycle(distinct), count))
    return Transaction(tx_id=draw(texts), payloads=payloads, submitter=draw(texts),
                       kind=draw(texts))


def plain(value):
    """Whether ``canonical_text`` takes ``value`` without falling back."""
    if type(value) is tuple:
        return all(plain(item) for item in value)
    return type(value) in (str, int)


class TestDirectEncoding:
    @settings(max_examples=120, deadline=None)
    @given(transactions())
    def test_direct_bytes_equal_canonical_bytes(self, tx):
        for value in [tx, *tx.payloads]:
            items = value.canonical_tuple()
            text = canonical_text(items)
            if plain(items):
                assert text is not None and text.encode("utf-8") == canonical_bytes(items)
            else:
                assert text is None
            assert tuple_digest(value) == hash_object(value)
        assert tx.content_hash == hash_object(tx)

    def test_bool_encodes_as_bool_not_int(self):
        assert canonical_text(("on", True)) is None
        assert canonical_text(("one", 1)) == "l2:s3:onei1;;"
        payload = Payload("p", "c", "KeyValue", "Set", (("off", False), ("on", True), ("one", 1)))
        assert b"l2:s3:offb0;" in canonical_bytes(payload)
        assert tuple_digest(payload) == hash_object(payload)

    def test_non_ascii_lengths_count_bytes(self):
        items = ("p\u00e9", (("k\u20ac", "v\U0001f600"),))
        text = canonical_text(items)
        assert text.startswith("l2:s3:p\u00e9")
        assert text.encode("utf-8") == canonical_bytes(items)

    def test_payload_digest_matches_generic(self):
        payload = make_payload(key="k1", value="v1")
        assert tuple_digest(payload) == hash_object(payload)

    def test_size_and_digest_survive_pickling(self):
        tx = Transaction.wrap([make_payload(key="k1"), make_payload(key="k2")], "c")
        digest = tx.content_hash
        copy = pickle.loads(pickle.dumps(tx))
        assert copy == tx and copy.size_bytes == tx.size_bytes == 96 + 2 * 128
        assert copy.content_hash == digest
