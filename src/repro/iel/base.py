"""IEL abstractions: state access, execution results, the layer protocol."""

from __future__ import annotations

import abc
import typing

from repro.storage.state import ReadWriteSet, WorldState
from repro.storage.transaction import Payload


class IELError(Exception):
    """A payload failed inside the IEL (missing key, insufficient funds...)."""


class ExecutionResult:
    """Outcome and cost accounting of executing one payload.

    A ``__slots__`` class with a plain ``__init__`` (one is built per
    payload execution); field names, defaults, equality, repr and
    unhashability match a non-frozen dataclass of the same fields.
    """

    __slots__ = ("ok", "error", "work_units", "reads", "writes", "value")

    def __init__(
        self,
        ok: bool,
        error: str = "",
        work_units: float = 1.0,
        reads: int = 0,
        writes: int = 0,
        value: object = None,
    ) -> None:
        self.ok = ok
        self.error = error
        #: Abstract work units consumed; the hosting node converts these
        #: to simulated time using its performance profile. A plain key
        #: access is 1 unit; a Corda vault scan is one unit per state
        #: scanned.
        self.work_units = work_units
        self.reads = reads
        self.writes = writes
        self.value = value

    def _values(self) -> tuple:
        return (self.ok, self.error, self.work_units, self.reads, self.writes, self.value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == typing.cast(ExecutionResult, other)._values()

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(ok={self.ok!r}, error={self.error!r}, "
            f"work_units={self.work_units!r}, reads={self.reads!r}, "
            f"writes={self.writes!r}, value={self.value!r})"
        )


class StateInterface(abc.ABC):
    """What an IEL may do to ledger state.

    Implementations track the abstract work performed in :attr:`work`,
    which execution results report back to the node's cost model.
    """

    def __init__(self) -> None:
        self.work = 0.0
        self.reads = 0
        self.writes = 0

    @abc.abstractmethod
    def get(self, key: str) -> typing.Optional[object]:
        """Read a value (``None`` when absent)."""

    @abc.abstractmethod
    def put(self, key: str, value: object) -> None:
        """Write a value."""

    def require(self, key: str) -> object:
        """Read a value, raising :class:`IELError` when absent."""
        value = self.get(key)
        if value is None:
            raise IELError(f"key not found: {key!r}")
        return value


class WorldStateAdapter(StateInterface):
    """Direct world-state access — the order-execute systems' adapter."""

    def __init__(self, state: WorldState) -> None:
        super().__init__()
        self.state = state

    def get(self, key: str) -> typing.Optional[object]:
        self.reads += 1
        self.work += 1.0
        return self.state.get(key)

    def put(self, key: str, value: object) -> None:
        self.writes += 1
        self.work += 1.0
        self.state.set(key, value)


class ReadWriteSetAdapter(StateInterface):
    """Snapshot simulation recording a read/write set — Fabric's adapter.

    Reads see the snapshot plus the transaction's own writes; nothing
    touches the world state until the validate phase applies the set.
    """

    def __init__(self, state: WorldState) -> None:
        super().__init__()
        self.state = state
        self.rwset = ReadWriteSet()

    def get(self, key: str) -> typing.Optional[object]:
        self.reads += 1
        self.work += 1.0
        if key in self.rwset.writes:
            return self.rwset.writes[key]
        value, version = self.state.get_versioned(key)
        self.rwset.record_read(key, version)
        return value

    def put(self, key: str, value: object) -> None:
        self.writes += 1
        self.work += 1.0
        self.rwset.record_write(key, value)


class InterfaceExecutionLayer(abc.ABC):
    """One deployed smart contract: a named set of functions."""

    #: The IEL's registry name ("DoNothing", "KeyValue", "BankingApp").
    name: str = ""

    def __init__(self) -> None:
        #: ``function -> handler`` for every listed function, built once:
        #: ``_fn_<function, lower-cased>``, or ``None`` when missing.
        self._handlers: typing.Dict[str, typing.Optional[typing.Callable[..., object]]] = {
            function: getattr(self, f"_fn_{function.lower()}", None)
            for function in self.functions()
        }

    @abc.abstractmethod
    def functions(self) -> typing.Tuple[str, ...]:
        """The function names this IEL exposes."""

    def execute(self, payload: Payload, state: StateInterface) -> ExecutionResult:
        """Run one payload against ``state``.

        Dispatches to ``_fn_<function>``, for listed functions only; IEL
        errors become failed results, never exceptions (the node decides
        what failure means — discard, invalidate, reject the batch...).
        """
        handler = self._handlers.get(payload.function)
        if handler is None:
            return ExecutionResult(
                ok=False,
                error=f"unknown function {payload.function!r} in IEL {self.name!r}",
                work_units=1.0,
            )
        work_before = state.work
        reads_before, writes_before = state.reads, state.writes
        try:
            value = handler(payload, state)
        except IELError as error:
            return ExecutionResult(
                ok=False,
                error=str(error),
                work_units=max(1.0, state.work - work_before),
                reads=state.reads - reads_before,
                writes=state.writes - writes_before,
            )
        return ExecutionResult(
            ok=True,
            work_units=max(1.0, state.work - work_before),
            reads=state.reads - reads_before,
            writes=state.writes - writes_before,
            value=value,
        )
