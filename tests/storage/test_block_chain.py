"""Unit and property tests for blocks and chains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import GENESIS_HASH
from repro.crypto.merkle import MerkleTree
from repro.storage import Block, Chain, ChainValidationError, Payload, Transaction


def make_tx(tag="x"):
    payload = Payload.create("client-1", "KeyValue", "Set", {"key": tag})
    return Transaction.wrap([payload], submitter="client-1")


def build_chain(num_blocks, txs_per_block=2):
    chain = Chain(owner="node-1")
    for height in range(num_blocks):
        block = Block.seal(
            height=height,
            parent_hash=chain.head_hash,
            transactions=[make_tx(f"{height}-{i}") for i in range(txs_per_block)],
            proposer="node-1",
            timestamp=float(height),
        )
        chain.append(block)
    return chain


class TestBlock:
    def test_seal_computes_merkle_root(self):
        block = Block.seal(0, GENESIS_HASH, [make_tx()], "node-1", 1.0)
        assert block.verify_merkle_root()

    def test_empty_block(self):
        block = Block.seal(0, GENESIS_HASH, [], "node-1", 1.0)
        assert block.is_empty
        assert block.payload_count == 0
        assert block.verify_merkle_root()

    def test_header_mismatch_rejected(self):
        from repro.storage.block import BlockHeader

        header = BlockHeader(0, GENESIS_HASH, "0" * 64, "n", 0.0, tx_count=5)
        with pytest.raises(ValueError):
            Block(header, [make_tx()])

    def test_supplied_merkle_root_seals_the_same_block(self):
        txs = [make_tx("a"), make_tx("b"), make_tx("c")]
        computed = Block.seal(3, GENESIS_HASH, txs, "node-1", 1.0)
        supplied = Block.seal(
            3, GENESIS_HASH, txs, "node-1", 1.0,
            merkle_root=MerkleTree(txs).root,
        )
        assert supplied.header == computed.header
        assert supplied.block_hash == computed.block_hash
        assert supplied.verify_merkle_root()

    def test_hash_depends_on_content(self):
        a = Block.seal(0, GENESIS_HASH, [make_tx("a")], "node-1", 1.0)
        b = Block.seal(0, GENESIS_HASH, [make_tx("b")], "node-1", 1.0)
        assert a.block_hash != b.block_hash


class TestChain:
    def test_append_and_linkage(self):
        chain = build_chain(5)
        assert len(chain) == 5
        assert chain.height == 4
        chain.validate()

    def test_empty_chain(self):
        chain = Chain()
        assert chain.head is None
        assert chain.head_hash == GENESIS_HASH
        assert chain.height == -1
        chain.validate()

    def test_height_gap_rejected(self):
        chain = build_chain(2)
        bad = Block.seal(5, chain.head_hash, [make_tx()], "node-1", 9.0)
        with pytest.raises(ChainValidationError, match="height"):
            chain.append(bad)

    def test_wrong_parent_rejected(self):
        chain = build_chain(2)
        bad = Block.seal(2, "f" * 64, [make_tx()], "node-1", 9.0)
        with pytest.raises(ChainValidationError, match="parent"):
            chain.append(bad)

    def test_duplicate_block_hash_rejected(self):
        chain = build_chain(1)
        head = chain.head
        # Re-offering the head at the next height: parent check would
        # already fail, but a hash collision is its own diagnostic.
        with pytest.raises(ChainValidationError):
            chain.append(head)

    def test_tampered_transactions_rejected_by_default(self):
        # A valid header whose transaction list was swapped behind it:
        # linkage and height are fine, only the Merkle root gives the
        # tamper away — append must verify it unless told otherwise.
        chain = build_chain(1)
        sealed = Block.seal(1, chain.head_hash, [make_tx("honest")], "node-1", 2.0)
        forged = Block(sealed.header, [make_tx("swapped")])
        with pytest.raises(ChainValidationError, match="merkle"):
            chain.append(forged)
        # The self-sealed fast path stays available for the node commit
        # loop, which computed the root itself a moment earlier.
        chain.append(sealed, verify_merkle=False)
        assert chain.height == 1

    def test_wrong_supplied_merkle_root_rejected(self):
        chain = build_chain(1)
        bad = Block.seal(1, chain.head_hash, [make_tx("x")], "node-1", 2.0,
                         merkle_root="0" * 64)
        with pytest.raises(ChainValidationError, match="merkle"):
            chain.append(bad, verify_merkle=True)
        assert chain.height == 0

    def test_failed_append_leaves_chain_unmodified(self):
        chain = build_chain(2)
        head_hash = chain.head_hash
        bad = Block.seal(2, "f" * 64, [make_tx()], "node-1", 9.0)
        with pytest.raises(ChainValidationError):
            chain.append(bad)
        assert len(chain) == 2
        assert chain.head_hash == head_hash
        assert chain.block_by_hash(bad.block_hash) is None
        chain.validate()

    def test_lookup_by_height_and_hash(self):
        chain = build_chain(3)
        block = chain.block_at(1)
        assert chain.block_by_hash(block.block_hash) is block
        assert chain.block_by_hash("0" * 64) is None

    def test_counters(self):
        chain = build_chain(3, txs_per_block=4)
        assert chain.total_transactions() == 12
        assert chain.total_payloads() == 12

    def test_same_prefix(self):
        long_chain = build_chain(4)
        short_chain = Chain(owner="node-2")
        for block in list(long_chain.blocks())[:2]:
            short_chain.append(block)
        assert short_chain.same_prefix(long_chain)
        assert long_chain.same_prefix(short_chain)

    def test_diverged_chains_not_prefix(self):
        a = build_chain(2)
        b = Chain(owner="node-2")
        b.append(Block.seal(0, GENESIS_HASH, [make_tx("different")], "node-2", 0.0))
        assert not a.same_prefix(b)


class TestChainProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
    def test_chain_of_any_block_sizes_validates(self, sizes):
        chain = Chain(owner="prop")
        for height, size in enumerate(sizes):
            block = Block.seal(
                height=height,
                parent_hash=chain.head_hash,
                transactions=[make_tx(f"{height}-{i}") for i in range(size)],
                proposer="prop",
                timestamp=float(height),
            )
            chain.append(block)
        chain.validate()
        assert chain.total_transactions() == sum(sizes)
