"""Unit tests for the quorum arithmetic the voting engines share."""

import pytest

from repro.consensus.base import EngineContext, max_faulty, quorum_size


class TestQuorums:
    @pytest.mark.parametrize(
        "n, expected",
        [(1, 1), (4, 3), (7, 5), (10, 7), (13, 9), (16, 11), (32, 22)],
    )
    def test_bft_quorum(self, n, expected):
        assert quorum_size(n, "bft") == expected

    @pytest.mark.parametrize("n, expected", [(1, 1), (3, 2), (4, 3), (5, 3), (32, 17)])
    def test_crash_quorum(self, n, expected):
        assert quorum_size(n, "crash") == expected

    @pytest.mark.parametrize("n, expected", [(4, 1), (7, 2), (16, 5), (32, 10)])
    def test_bft_max_faulty(self, n, expected):
        assert max_faulty(n, "bft") == expected

    def test_bft_quorum_intersects_in_correct_replica(self):
        # Any two quorums overlap in at least f+1 replicas, i.e. at least
        # one correct one — the core BFT safety argument.
        for n in range(1, 50):
            q = quorum_size(n, "bft")
            f = max_faulty(n, "bft")
            assert 2 * q - n >= f + 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            quorum_size(0)
        with pytest.raises(ValueError):
            quorum_size(4, "unknown")
        with pytest.raises(ValueError):
            max_faulty(0)
        with pytest.raises(ValueError):
            max_faulty(4, "unknown")

    @pytest.mark.parametrize("n", [1, 3, 4, 7, 16, 32])
    def test_engine_context_caches_both_quorums(self, n):
        peers = [f"n{index}" for index in range(n)]
        context = EngineContext(None, None, "n0", peers, lambda decision: None, None)
        assert context.bft_quorum == quorum_size(n, "bft")
        assert context.crash_quorum == quorum_size(n, "crash")
        assert context.f_plus_one == max_faulty(n, "bft") + 1
