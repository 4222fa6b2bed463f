"""Declarative fault plans.

A :class:`FaultPlan` is an ordered list of timed :class:`FaultAction`
entries — crash/restart an endpoint, isolate it, split the network,
impair links — that a :class:`~repro.faults.injector.FaultInjector`
executes on the simulation clock. Action times are offsets in seconds
from the instant the plan is installed (the benchmark phase start), so
one plan applies unchanged to every phase, repetition and system.

Targets are resolved late, when the action fires, which is what makes
trigger-style actions possible: ``"leader"`` asks the system model who
is coordinating consensus *right now* (Raft leader, PBFT primary, IBFT
proposer, DPoS slot witness, Corda notary), ``"random"`` draws a node
from the injector's dedicated RNG stream, and ``"n<i>"`` picks the
i-th node of the deployment without knowing the system's name prefix.

Plans serialise to/from JSON (``{"actions": [...]}``) for the
``coconut run --faults plan.json`` CLI path.
"""

from __future__ import annotations

import dataclasses
import json
import typing

#: Every action kind a plan may contain.
ACTION_KINDS: typing.Tuple[str, ...] = (
    "crash",
    "restart",
    "isolate",
    "heal",
    "partition",
    "heal_all",
    "loss_burst",
    "latency_surge",
)

#: Kinds that require a single endpoint target.
_TARGETED_KINDS = ("crash", "restart", "isolate", "heal")


@dataclasses.dataclass(frozen=True)
class FaultAction:
    """One timed fault event.

    ``at`` is seconds after plan installation. ``target`` is an endpoint
    id, ``"n<i>"`` (deployment node index), ``"leader"`` (resolved at
    fire time) or ``"random"`` (drawn from the fault RNG stream).
    """

    kind: str
    at: float
    target: typing.Optional[str] = None
    group_a: typing.Tuple[str, ...] = ()
    group_b: typing.Tuple[str, ...] = ()
    probability: float = 0.0
    duration: float = 0.0
    extra_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown fault action kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"action time must be >= 0, got {self.at}")
        if self.kind in _TARGETED_KINDS and not self.target:
            raise ValueError(f"{self.kind} requires a target")
        if self.kind == "partition" and (not self.group_a or not self.group_b):
            raise ValueError("partition requires two non-empty groups")
        if self.kind == "loss_burst":
            if not 0.0 < self.probability <= 1.0:
                raise ValueError(
                    f"loss_burst probability must be in (0, 1], got {self.probability}"
                )
            if self.duration <= 0:
                raise ValueError(f"loss_burst duration must be > 0, got {self.duration}")
        if self.kind == "latency_surge":
            if self.extra_ms <= 0:
                raise ValueError(f"latency_surge extra_ms must be > 0, got {self.extra_ms}")
            if self.duration <= 0:
                raise ValueError(
                    f"latency_surge duration must be > 0, got {self.duration}"
                )

    @property
    def end_at(self) -> float:
        """When the action's effect ends (equals ``at`` for instant ones)."""
        return self.at + self.duration

    def to_dict(self) -> typing.Dict[str, object]:
        """A JSON-ready dict holding only the meaningful fields."""
        data: typing.Dict[str, object] = {"kind": self.kind, "at": self.at}
        if self.target is not None:
            data["target"] = self.target
        if self.group_a:
            data["group_a"] = list(self.group_a)
        if self.group_b:
            data["group_b"] = list(self.group_b)
        if self.probability:
            data["probability"] = self.probability
        if self.duration:
            data["duration"] = self.duration
        if self.extra_ms:
            data["extra_ms"] = self.extra_ms
        return data

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, object]) -> "FaultAction":
        if not isinstance(data, typing.Mapping):
            raise ValueError(f"a fault action must be an object, got {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault action fields: {sorted(unknown)}")
        missing = {"kind", "at"} - set(data)
        if missing:
            raise ValueError(f"fault action lacks {sorted(missing)}")
        for name in ("at", "probability", "duration", "extra_ms"):
            if name in data and not _is_number(data[name]):
                raise ValueError(f"fault action {name!r} must be a number, got {data[name]!r}")
        kwargs = dict(data)
        for group in ("group_a", "group_b"):
            if group in kwargs:
                members = kwargs[group]
                if not isinstance(members, (list, tuple)) or not all(
                    isinstance(member, str) for member in members
                ):
                    raise ValueError(f"fault action {group!r} must be a list of endpoint ids")
                kwargs[group] = tuple(members)
        if not isinstance(kwargs.get("target", ""), (str, type(None))):
            raise ValueError(f"fault action 'target' must be a string, got {kwargs['target']!r}")
        return cls(**typing.cast(typing.Dict[str, typing.Any], kwargs))


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class FaultPlan:
    """An ordered set of fault actions, built fluently or from JSON."""

    def __init__(self, actions: typing.Iterable[FaultAction] = ()) -> None:
        self.actions: typing.List[FaultAction] = list(actions)

    # -- fluent builders (all return self for chaining) ----------------

    def _add(self, action: FaultAction) -> "FaultPlan":
        self.actions.append(action)
        return self

    def crash(self, target: str, at: float) -> "FaultPlan":
        """Crash one endpoint at ``at`` seconds."""
        return self._add(FaultAction(kind="crash", at=at, target=target))

    def restart(self, target: str, at: float) -> "FaultPlan":
        """Restart an endpoint; ``"leader"`` restarts the most recently
        crashed endpoint (the crash may have resolved "leader" itself)."""
        return self._add(FaultAction(kind="restart", at=at, target=target))

    def kill_leader(self, at: float) -> "FaultPlan":
        """Crash whichever endpoint is coordinating consensus at ``at``."""
        return self._add(FaultAction(kind="crash", at=at, target="leader"))

    def isolate(self, target: str, at: float) -> "FaultPlan":
        """Cut one endpoint off the network (process keeps running)."""
        return self._add(FaultAction(kind="isolate", at=at, target=target))

    def heal(self, target: str, at: float) -> "FaultPlan":
        """Reconnect a previously isolated endpoint."""
        return self._add(FaultAction(kind="heal", at=at, target=target))

    def partition(
        self,
        group_a: typing.Iterable[str],
        group_b: typing.Iterable[str],
        at: float,
    ) -> "FaultPlan":
        """Split the network into two groups at ``at``."""
        return self._add(
            FaultAction(
                kind="partition", at=at, group_a=tuple(group_a), group_b=tuple(group_b)
            )
        )

    def heal_all(self, at: float) -> "FaultPlan":
        """Remove every partition and isolation at ``at``."""
        return self._add(FaultAction(kind="heal_all", at=at))

    def loss_burst(
        self,
        probability: float,
        duration: float,
        at: float,
        between: typing.Optional[typing.Tuple[str, str]] = None,
    ) -> "FaultPlan":
        """Drop messages with ``probability`` for ``duration`` seconds —
        network-wide, or on one bidirectional path when ``between`` is
        given."""
        a, b = between if between is not None else (None, None)
        return self._add(
            FaultAction(
                kind="loss_burst",
                at=at,
                probability=probability,
                duration=duration,
                group_a=(a,) if a else (),
                group_b=(b,) if b else (),
            )
        )

    def latency_surge(self, extra_ms: float, duration: float, at: float) -> "FaultPlan":
        """Add ``extra_ms`` milliseconds to every delivery for ``duration``."""
        return self._add(
            FaultAction(kind="latency_surge", at=at, extra_ms=extra_ms, duration=duration)
        )

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self.actions)

    def __bool__(self) -> bool:
        return bool(self.actions)

    def __iter__(self) -> typing.Iterator[FaultAction]:
        # Stable order: by fire time, ties in insertion order.
        return iter(sorted(self.actions, key=lambda a: a.at))

    def fault_window(self) -> typing.Optional[typing.Tuple[float, float]]:
        """The (first action, last effect end) offsets, or ``None``."""
        if not self.actions:
            return None
        start = min(action.at for action in self.actions)
        end = max(action.end_at for action in self.actions)
        return start, end

    # -- (de)serialisation ----------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"actions": [action.to_dict() for action in self]}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict) or "actions" not in data:
            raise ValueError('fault plan JSON must be {"actions": [...]}')
        actions = data["actions"]
        if not isinstance(actions, list):
            raise ValueError('"actions" must be a list')
        return cls(FaultAction.from_dict(entry) for entry in actions)

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self.actions)} actions>"
