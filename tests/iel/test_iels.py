"""Unit tests for the three paper IELs and the adapters."""

import pytest

from repro.iel import (
    BankingAppIEL,
    DoNothingIEL,
    ExecutionResult,
    KeyValueIEL,
    WorldStateAdapter,
    available_iels,
    create_iel,
    register_iel,
)
from repro.iel.base import ReadWriteSetAdapter, InterfaceExecutionLayer
from repro.iel.banking import checking_key, saving_key
from repro.storage import Payload, WorldState


def payload(iel, function, **args):
    return Payload.create("client-1", iel, function, args)


@pytest.fixture()
def state():
    return WorldState()


@pytest.fixture()
def adapter(state):
    return WorldStateAdapter(state)


class TestDoNothing:
    def test_succeeds_without_state_access(self, adapter):
        result = DoNothingIEL().execute(payload("DoNothing", "DoNothing"), adapter)
        assert result.ok
        assert result.reads == 0
        assert result.writes == 0

    def test_unknown_function_fails(self, adapter):
        result = DoNothingIEL().execute(payload("DoNothing", "Explode"), adapter)
        assert not result.ok
        assert "unknown function" in result.error


class TestKeyValue:
    def test_set_then_get(self, state, adapter):
        iel = KeyValueIEL()
        set_result = iel.execute(payload("KeyValue", "Set", key="k1", value="v1"), adapter)
        assert set_result.ok
        assert set_result.writes == 1
        get_result = iel.execute(payload("KeyValue", "Get", key="k1"), adapter)
        assert get_result.ok
        assert get_result.value == "v1"
        assert get_result.reads == 1

    def test_get_missing_key_fails(self, adapter):
        result = KeyValueIEL().execute(payload("KeyValue", "Get", key="ghost"), adapter)
        assert not result.ok
        assert "not found" in result.error

    def test_set_requires_key(self, adapter):
        result = KeyValueIEL().execute(payload("KeyValue", "Set", value="v"), adapter)
        assert not result.ok

    def test_get_requires_key(self, adapter):
        result = KeyValueIEL().execute(payload("KeyValue", "Get"), adapter)
        assert not result.ok


class TestBankingApp:
    def setup_accounts(self, adapter, *accounts):
        iel = BankingAppIEL()
        for account in accounts:
            result = iel.execute(
                payload("BankingApp", "CreateAccount", account=account, checking=100, saving=50),
                adapter,
            )
            assert result.ok
        return iel

    def test_create_account_writes_both_balances(self, state, adapter):
        self.setup_accounts(adapter, "alice")
        assert state.get(checking_key("alice")) == 100
        assert state.get(saving_key("alice")) == 50

    def test_negative_initial_balance_rejected(self, adapter):
        result = BankingAppIEL().execute(
            payload("BankingApp", "CreateAccount", account="bad", checking=-1), adapter
        )
        assert not result.ok

    def test_send_payment_moves_money(self, state, adapter):
        iel = self.setup_accounts(adapter, "alice", "bob")
        result = iel.execute(
            payload("BankingApp", "SendPayment", source="alice", destination="bob", amount=30),
            adapter,
        )
        assert result.ok
        assert state.get(checking_key("alice")) == 70
        assert state.get(checking_key("bob")) == 130

    def test_payment_conserves_total_money(self, state, adapter):
        iel = self.setup_accounts(adapter, "a", "b", "c")
        total_before = sum(state.get(checking_key(x)) for x in ["a", "b", "c"])
        for source, destination in [("a", "b"), ("b", "c"), ("c", "a")]:
            iel.execute(
                payload("BankingApp", "SendPayment", source=source,
                        destination=destination, amount=10),
                adapter,
            )
        total_after = sum(state.get(checking_key(x)) for x in ["a", "b", "c"])
        assert total_after == total_before

    def test_insufficient_funds_rejected(self, state, adapter):
        iel = self.setup_accounts(adapter, "alice", "bob")
        result = iel.execute(
            payload("BankingApp", "SendPayment", source="alice", destination="bob", amount=1000),
            adapter,
        )
        assert not result.ok
        assert "insufficient" in result.error
        assert state.get(checking_key("alice")) == 100  # unchanged

    def test_unknown_accounts_rejected(self, adapter):
        iel = BankingAppIEL()
        result = iel.execute(
            payload("BankingApp", "SendPayment", source="ghost", destination="ghoul", amount=1),
            adapter,
        )
        assert not result.ok

    def test_balance_sums_checking_and_saving(self, adapter):
        iel = self.setup_accounts(adapter, "alice")
        result = iel.execute(payload("BankingApp", "Balance", account="alice"), adapter)
        assert result.ok
        assert result.value == 150

    def test_balance_of_unknown_account_fails(self, adapter):
        result = BankingAppIEL().execute(
            payload("BankingApp", "Balance", account="ghost"), adapter
        )
        assert not result.ok

    def test_non_positive_amount_rejected(self, adapter):
        iel = self.setup_accounts(adapter, "alice", "bob")
        for amount in (0, -5):
            result = iel.execute(
                payload("BankingApp", "SendPayment", source="alice",
                        destination="bob", amount=amount),
                adapter,
            )
            assert not result.ok


class TestReadWriteSetAdapter:
    def test_records_reads_and_writes_without_mutating(self, state):
        state.set("k", "v0")
        adapter = ReadWriteSetAdapter(state)
        iel = KeyValueIEL()
        iel.execute(payload("KeyValue", "Get", key="k"), adapter)
        iel.execute(payload("KeyValue", "Set", key="k", value="v1"), adapter)
        assert state.get("k") == "v0"  # nothing applied yet
        assert adapter.rwset.reads == {"k": 1}
        assert adapter.rwset.writes == {"k": "v1"}

    def test_reads_own_writes(self, state):
        adapter = ReadWriteSetAdapter(state)
        iel = KeyValueIEL()
        iel.execute(payload("KeyValue", "Set", key="k", value="mine"), adapter)
        result = iel.execute(payload("KeyValue", "Get", key="k"), adapter)
        assert result.ok
        assert result.value == "mine"
        # A read satisfied by the write set must not record a version.
        assert "k" not in adapter.rwset.reads

    def test_apply_after_simulation(self, state):
        adapter = ReadWriteSetAdapter(state)
        KeyValueIEL().execute(payload("KeyValue", "Set", key="k", value="v"), adapter)
        assert state.apply(adapter.rwset)
        assert state.get("k") == "v"


class TestRegistry:
    def test_builtins_available(self):
        assert available_iels() == ["BankingApp", "DoNothing", "KeyValue"]

    def test_create_by_name(self):
        assert isinstance(create_iel("KeyValue"), KeyValueIEL)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            create_iel("Nonexistent")

    def test_register_custom_iel(self):
        class VotingIEL(InterfaceExecutionLayer):
            name = "VotingTest"

            def functions(self):
                return ("Vote",)

            def _fn_vote(self, payload, state):
                key = f"votes:{payload.arg('candidate')}"
                state.put(key, (state.get(key) or 0) + 1)

        register_iel(VotingIEL)
        assert "VotingTest" in available_iels()
        iel = create_iel("VotingTest")
        adapter = WorldStateAdapter(WorldState())
        result = iel.execute(payload("VotingTest", "Vote", candidate="x"), adapter)
        assert result.ok

    def test_duplicate_name_rejected(self):
        class FakeKeyValue(InterfaceExecutionLayer):
            name = "KeyValue"

            def functions(self):
                return ()

        with pytest.raises(ValueError):
            register_iel(FakeKeyValue)

    def test_unnamed_iel_rejected(self):
        class Anonymous(InterfaceExecutionLayer):
            def functions(self):
                return ()

        with pytest.raises(ValueError):
            register_iel(Anonymous)


class TestDispatch:
    """Each IEL dispatches listed functions through a table built once
    from ``functions()``; anything else is a failed result."""

    class HalfBuilt(InterfaceExecutionLayer):
        name = "HalfBuilt"

        def functions(self):
            return ("Listed", "Missing")

        def _fn_listed(self, payload, state):
            return "ran"

        def _fn_unlisted(self, payload, state):
            raise AssertionError("an unlisted function must not run")

    def unknown(self, function, iel_name):
        return ExecutionResult(
            ok=False,
            error=f"unknown function {function!r} in IEL {iel_name!r}",
            work_units=1.0,
        )

    def test_listed_function_runs(self, adapter):
        result = self.HalfBuilt().execute(payload("HalfBuilt", "Listed"), adapter)
        assert result == ExecutionResult(ok=True, value="ran")

    @pytest.mark.parametrize("function", ["Missing", "Unlisted", "listed", "LISTED", ""])
    def test_missing_handler_or_unlisted_name_fails(self, adapter, function):
        result = self.HalfBuilt().execute(payload("HalfBuilt", function), adapter)
        assert result == self.unknown(function, "HalfBuilt")
        assert adapter.reads == adapter.writes == 0

    @pytest.mark.parametrize("iel", [DoNothingIEL, KeyValueIEL, BankingAppIEL])
    def test_unknown_function_error_text(self, adapter, iel):
        result = iel().execute(payload(iel.name, "set"), adapter)
        assert result.error == f"unknown function 'set' in IEL {iel.name!r}"
        assert result == self.unknown("set", iel.name)

    @pytest.mark.parametrize("iel", [DoNothingIEL, KeyValueIEL, BankingAppIEL])
    def test_every_listed_function_has_a_handler(self, iel):
        instance = iel()
        for function in instance.functions():
            assert callable(getattr(instance, f"_fn_{function.lower()}"))


class TestExecutionResult:
    def test_defaults(self):
        result = ExecutionResult(ok=True)
        assert (result.ok, result.error, result.work_units, result.reads, result.writes,
                result.value) == (True, "", 1.0, 0, 0, None)

    def test_positional_order(self):
        assert ExecutionResult(False, "e", 2.0, 3, 4, "v") == ExecutionResult(
            ok=False, error="e", work_units=2.0, reads=3, writes=4, value="v"
        )

    def test_equality_covers_every_field(self):
        base = dict(ok=True, error="", work_units=1.0, reads=1, writes=1, value=1)
        assert ExecutionResult(**base) == ExecutionResult(**base)
        for field, other in (("ok", False), ("error", "x"), ("work_units", 2.0),
                             ("reads", 2), ("writes", 2), ("value", 2)):
            assert ExecutionResult(**base) != ExecutionResult(**{**base, field: other})

    def test_not_equal_to_another_type(self):
        assert ExecutionResult(ok=True) != (True, "", 1.0, 0, 0, None)

    def test_repr(self):
        assert repr(ExecutionResult(ok=False, error="boom", reads=2, value="v")) == (
            "ExecutionResult(ok=False, error='boom', work_units=1.0, reads=2, writes=0,"
            " value='v')"
        )

    def test_unhashable_and_slotted(self):
        result = ExecutionResult(ok=True)
        with pytest.raises(TypeError):
            hash(result)
        with pytest.raises(AttributeError):
            result.extra = 1
