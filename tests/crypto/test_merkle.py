"""Unit and property tests for Merkle trees."""

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleTree


class TestMerkleTree:
    def test_empty_tree_has_root(self):
        tree = MerkleTree([])
        assert len(tree) == 0
        assert len(tree.root) == 64

    def test_single_leaf_root_is_leaf_hash(self):
        tree = MerkleTree(["only"])
        assert tree.root == tree.leaf_hashes[0]

    def test_root_changes_with_content(self):
        assert MerkleTree(["a", "b"]).root != MerkleTree(["a", "c"]).root

    def test_root_changes_with_order(self):
        assert MerkleTree(["a", "b"]).root != MerkleTree(["b", "a"]).root


class TestMerkleProperties:
    @given(st.lists(st.text(), min_size=1, max_size=20))
    def test_rebuild_gives_same_root(self, leaves):
        assert MerkleTree(leaves).root == MerkleTree(leaves).root
