"""Unit and property tests for the MVCC world state."""

from hypothesis import given
from hypothesis import strategies as st

from repro.storage import ReadWriteSet, WorldState
from repro.storage.state import MISSING_VERSION


class TestWorldState:
    def test_missing_key(self):
        state = WorldState()
        assert state.get("k") is None
        assert state.version("k") == MISSING_VERSION
        assert "k" not in state

    def test_set_bumps_version(self):
        state = WorldState()
        assert state.set("k", "v1") == 1
        assert state.set("k", "v2") == 2
        assert state.get_versioned("k") == ("v2", 2)

    def test_apply_valid_rwset(self):
        state = WorldState()
        state.set("k", "v1")
        rwset = ReadWriteSet()
        rwset.record_read("k", 1)
        rwset.record_write("k", "v2")
        assert state.apply(rwset)
        assert state.get("k") == "v2"
        assert state.commit_count == 1

    def test_apply_stale_read_rejected_without_mutation(self):
        # The Fabric MVCC path: simulate against version 1, another tx
        # commits version 2, validation must fail and write nothing.
        state = WorldState()
        state.set("k", "v1")
        stale = ReadWriteSet()
        stale.record_read("k", 1)
        stale.record_write("k", "stale-write")
        state.set("k", "v2")  # concurrent commit
        assert not state.apply(stale)
        assert state.get("k") == "v2"
        assert state.invalidated_count == 1

    def test_read_of_missing_key_validates_when_still_missing(self):
        state = WorldState()
        rwset = ReadWriteSet()
        rwset.record_read("new", MISSING_VERSION)
        rwset.record_write("new", "v")
        assert state.apply(rwset)
        assert state.get("new") == "v"


class TestLineage:
    def test_empty_state_has_lineage_zero(self):
        assert WorldState().lineage == 0

    def test_set_clears_lineage(self):
        state = WorldState()
        state.set("k", "v")
        assert state.lineage is None

    def test_apply_clears_lineage_even_without_writes(self):
        state = WorldState()
        state.lineage = 7
        rwset = ReadWriteSet()
        rwset.record_read("k", MISSING_VERSION)
        assert state.apply(rwset)
        assert state.lineage is None

    def test_rejected_apply_keeps_lineage(self):
        state = WorldState()
        state.set("k", "v1")
        state.lineage = 7
        stale = ReadWriteSet()
        stale.record_read("k", MISSING_VERSION)
        stale.record_write("k", "v2")
        assert not state.apply(stale)
        assert state.lineage == 7

    def test_replayed_rwsets_match_fresh_execution(self):
        # One replica executes (reads and writes through an rwset per
        # transaction); another applies the recorded sets. Versions,
        # values and commit counts must agree.
        executed, replayed = WorldState(), WorldState()
        recorded = []
        for step in range(6):
            rwset = ReadWriteSet()
            for key in ("a", "b") if step % 2 else ("a", "c"):
                rwset.record_read(key, executed.version(key))
                rwset.record_write(key, f"{key}{step}")
            assert executed.apply(rwset)
            recorded.append(rwset)
        for rwset in recorded:
            assert replayed.apply(rwset)
        assert replayed.snapshot_versions() == executed.snapshot_versions()
        assert {k: replayed.get(k) for k in replayed.keys()} == {
            k: executed.get(k) for k in executed.keys()
        }
        assert replayed.commit_count == executed.commit_count == 6
        assert replayed.invalidated_count == 0


class TestReadWriteSet:
    def test_first_read_version_wins(self):
        rwset = ReadWriteSet()
        rwset.record_read("k", 1)
        rwset.record_read("k", 2)  # repeated read in same tx
        assert rwset.reads["k"] == 1


class TestStateProperties:
    @given(st.lists(st.tuples(st.text(max_size=4), st.integers()), max_size=50))
    def test_versions_monotone(self, writes):
        state = WorldState()
        last_version = {}
        for key, value in writes:
            version = state.set(key, value)
            assert version > last_version.get(key, 0)
            last_version[key] = version

    @given(
        st.dictionaries(st.text(min_size=1, max_size=3), st.integers(), max_size=8),
        st.dictionaries(st.text(min_size=1, max_size=3), st.integers(), max_size=8),
    )
    def test_serial_application_of_conflict_free_sets(self, first_writes, second_writes):
        # Two rwsets built against the same snapshot: the second applies
        # cleanly only when it read nothing the first wrote.
        state = WorldState()
        base = WorldState()

        first = ReadWriteSet()
        for key, value in first_writes.items():
            first.record_read(key, base.version(key))
            first.record_write(key, value)
        second = ReadWriteSet()
        for key, value in second_writes.items():
            second.record_read(key, base.version(key))
            second.record_write(key, value)

        assert state.apply(first)
        expect_second_ok = not (set(second.reads) & set(first.writes))
        assert state.apply(second) == expect_second_ok
