"""Parent-linked blocks hash lazily and agree with eagerly sealed ones.

A replica seals each decided proposal with :meth:`Block.linked`: the
header and the block hash are built only when something reads them.
These tests pin that such a chain has exactly the headers and hashes of
one sealed through :meth:`Block.seal` with explicit parent hashes,
whatever order they are read in, and that reading a long unread chain
or its plain attributes costs no recursion and no hash.
"""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.blockstats import collect_block_stats
from repro.chains.base import BlockProposal
from repro.crypto.hashing import GENESIS_HASH, hash_object
from repro.invariants import InvariantChecker
from repro.storage import Block, Chain, ChainValidationError, Payload, Transaction
from repro.storage import block as block_module
from repro.storage.block import MerkleRoot

texts = st.text(max_size=8)
arg_values = st.one_of(texts, st.integers(min_value=-10**20, max_value=10**20))


@st.composite
def transactions(draw, height, index):
    payloads = tuple(
        Payload(
            payload_id=f"p{height}-{index}-{i}",
            client_id=draw(texts),
            iel="KeyValue",
            function=draw(st.sampled_from(["Set", "Get", "Rmw"])),
            args=tuple(sorted(draw(st.dictionaries(texts, arg_values, max_size=3)).items())),
        )
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return Transaction(f"tx{height}-{index}", payloads, draw(texts), draw(texts))


@st.composite
def block_specs(draw):
    """``[(transactions, proposer, timestamp), ...]``, 1-40 blocks of
    0-5 transactions each."""
    count = draw(st.integers(min_value=1, max_value=40))
    return [
        (
            tuple(draw(transactions(height, i))
                  for i in range(draw(st.integers(min_value=0, max_value=5)))),
            draw(texts),
            draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        )
        for height in range(count)
    ]


def linked_chain(specs):
    chain = Chain(owner="linked")
    for txs, proposer, timestamp in specs:
        chain.append(Block.linked(chain.head, MerkleRoot(txs), proposer, timestamp),
                     verify_merkle=False)
    return chain


def sealed_chain(specs):
    chain = Chain(owner="sealed")
    for height, (txs, proposer, timestamp) in enumerate(specs):
        chain.append(Block.seal(height, chain.head_hash, txs, proposer, timestamp))
    return chain


class TestLazyMatchesEager:
    @settings(max_examples=30, deadline=None)
    @given(specs=block_specs(), order=st.sampled_from(["head", "genesis", "random"]),
           hash_first=st.booleans(), data=st.data())
    def test_headers_and_hashes_equal_in_any_read_order(self, specs, order, hash_first, data):
        lazy = linked_chain(specs)
        eager = sealed_chain(specs)
        heights = list(range(len(specs)))
        if order == "head":
            heights.reverse()
        elif order == "random":
            heights = data.draw(st.permutations(heights))
        for height in heights:
            mine, theirs = lazy.block_at(height), eager.block_at(height)
            if hash_first:
                assert mine.block_hash == theirs.block_hash
                assert mine.header == theirs.header
            else:
                assert mine.header == theirs.header
                assert mine.block_hash == theirs.block_hash
        lazy.validate()
        assert lazy.same_prefix(eager) and eager.same_prefix(lazy)
        assert lazy.head_hash == eager.head_hash


def empty_linked_chain(length):
    chain = Chain(owner="long")
    for height in range(length):
        chain.append(Block.linked(chain.head, MerkleRoot(()), "n0", float(height)),
                     verify_merkle=False)
    return chain


class TestLazyReads:
    def test_head_hash_of_a_long_unread_chain_does_not_recurse(self):
        chain = empty_linked_chain(5_000)
        head = chain.head
        assert head.block_hash == hash_object(head.header)
        assert head.header.parent_hash == chain.block_at(4_998).block_hash
        assert chain.block_at(0).header.parent_hash == GENESIS_HASH
        chain.validate()

    def test_plain_attributes_and_block_stats_compute_no_hash(self, monkeypatch):
        def no_hashing(*args):
            raise AssertionError("a hash was computed")

        monkeypatch.setattr(block_module, "hash_object", no_hashing)
        monkeypatch.setattr(block_module, "MerkleTree", no_hashing)
        chain = empty_linked_chain(6)
        assert [block.height for block in chain.blocks()] == list(range(6))
        assert [block.timestamp for block in chain.blocks()] == [float(h) for h in range(6)]
        assert [block.proposer for block in chain.blocks()] == ["n0"] * 6
        stats = collect_block_stats(chain)
        assert stats.block_count == 6 and stats.empty_blocks == 6
        assert stats.mean_interval == 1.0
        assert all(block._hash is None and block._header is None for block in chain.blocks())

    def test_append_rejects_a_block_linked_to_another_parent(self):
        chain = empty_linked_chain(3)
        stray = Block.linked(chain.block_at(1), MerkleRoot(()), "n0", 9.0)
        with pytest.raises(ChainValidationError, match="height"):
            chain.append(stray)
        fork = empty_linked_chain(3)
        with pytest.raises(ChainValidationError, match="parent"):
            chain.append(Block.linked(fork.head, MerkleRoot(()), "n0", 9.0))
        assert len(chain) == 3

    def test_swapped_transactions_fail_validation(self):
        tx = Transaction.wrap([Payload.create("c", "KeyValue", "Set", {"key": "k"})], "c")
        swapped = Transaction.wrap([Payload.create("c", "KeyValue", "Set", {"key": "j"})], "c")
        chain = Chain(owner="tampered")
        chain.append(Block.linked(None, MerkleRoot((tx,)), "n0", 1.0), verify_merkle=False)
        chain.head.transactions = (swapped,)
        with pytest.raises(ChainValidationError, match="merkle"):
            chain.validate()

    def test_block_does_not_keep_its_proposal_alive(self):
        tx = Transaction.wrap([Payload.create("c", "KeyValue", "Set", {"key": "k"})], "c")
        proposal = BlockProposal.cut([tx], created_at=1.0)
        block = Block.linked(None, proposal.root, "n0", proposal.created_at)
        probe = weakref.ref(proposal)
        del proposal
        assert probe() is None
        assert block.verify_merkle_root()


class TestSharedMerkleVerdict:
    """Every replica seals a decided proposal from its one shared
    :class:`MerkleRoot`; strict re-validation takes the root's memoized
    verdict, so each distinct root is built once for its value and once,
    independently, to verify it."""

    @staticmethod
    def counting_trees(monkeypatch):
        builds = []

        class CountingTree(block_module.MerkleTree):
            def __init__(self, leaves):
                builds.append(len(leaves))
                super().__init__(leaves)

        monkeypatch.setattr(block_module, "MerkleTree", CountingTree)
        return builds

    @staticmethod
    def txs(count, tag="k"):
        return [
            Transaction.wrap([Payload.create("c", "KeyValue", "Set", {"key": f"{tag}{i}"})], "c")
            for i in range(count)
        ]

    def test_four_replicas_build_a_proposals_tree_twice(self, monkeypatch):
        builds = self.counting_trees(monkeypatch)
        proposal = BlockProposal.cut(self.txs(5), created_at=1.0)
        checker = InvariantChecker(level="strict")
        for node in ("n0", "n1", "n2", "n3"):
            checker.on_block(node, Block.linked(None, proposal.root, "n0", proposal.created_at))
        assert builds == [5, 5]
        assert checker.report.ok
        assert checker.report.checks["hash-chain"] == 4

    def test_a_replicas_swapped_transactions_fail_after_the_root_verified(self):
        tx, swapped = self.txs(1, "k") + self.txs(1, "j")
        root = MerkleRoot((tx,))
        honest = Block.linked(None, root, "n0", 1.0)
        tampered = Block.linked(None, root, "n0", 1.0)
        assert honest.verify_merkle_root()
        tampered.transactions = (swapped,)
        assert not tampered.verify_merkle_root()

    def test_a_header_over_other_transactions_fails_the_strict_oracle(self):
        tx, other = self.txs(1, "k") + self.txs(1, "j")
        forged = Block(Block.seal(0, GENESIS_HASH, [tx], "n0", 1.0).header, [other])
        assert not forged.verify_merkle_root()
        checker = InvariantChecker(level="strict")
        checker.on_block("n0", forged)
        assert [v.detail for v in checker.report.violations_for("hash-chain")] == [
            "height 0: merkle root mismatch"
        ]
