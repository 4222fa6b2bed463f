"""Declarative workload specifications.

A :class:`WorkloadSpec` describes *how* a benchmark unit offers load,
mirroring the :class:`~repro.faults.plan.FaultPlan` design: a frozen,
JSON-loadable value object that travels inside
:class:`~repro.coconut.config.BenchmarkConfig`, reaches every worker
process unchanged, and is covered by the result-cache fingerprint. It
combines three orthogonal axes plus per-phase overrides:

* an **arrival process** (:class:`ArrivalSpec`) — how send instants are
  spaced: the paper's fixed-rate pacing (``constant``), an open-loop
  ``poisson`` process, an on/off ``burst`` (MMPP-style), a linear
  ``ramp``, or a ``replay`` of recorded send offsets;
* a **key/account access distribution** (:class:`AccessSpec`) — which
  identifiers operations touch: the paper's per-thread ``disjoint``
  spaces, or ``uniform`` / ``zipfian`` / ``hotspot`` draws over a fixed
  key universe so runs exercise real write-write contention;
* an **operation mix** — per-payload function choice inside one phase
  (e.g. 90/10 Get/Set, or read-modify-write via the KeyValue ``Rmw``
  function).

The default spec (``WorkloadSpec()``) reproduces the paper's Section
4.1/4.3 generator exactly: constant arrivals, disjoint key spaces, no
mix. Benchmarks configured with it are byte-identical to runs that
predate this subsystem — the legacy code path draws no randomness at
all, so the dedicated ``workloads/...`` RNG streams stay untouched.
"""

from __future__ import annotations

import dataclasses
import json
import typing

#: Arrival process kinds.
ARRIVAL_KINDS: typing.Tuple[str, ...] = (
    "constant",
    "poisson",
    "burst",
    "ramp",
    "replay",
)

#: Access distribution kinds.
ACCESS_KINDS: typing.Tuple[str, ...] = (
    "disjoint",
    "uniform",
    "zipfian",
    "hotspot",
)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_fields(
    data: object,
    what: str,
    known: typing.Collection[str],
    numbers: typing.Collection[str] = (),
) -> typing.Mapping[str, object]:
    """``data`` as a JSON object with only ``known`` keys and the
    ``numbers`` keys numeric; :class:`ValueError` otherwise."""
    if not isinstance(data, typing.Mapping):
        raise ValueError(f"{what} must be an object, got {data!r}")
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    for name in numbers:
        if name in data and not _is_number(data[name]):
            raise ValueError(f"{what} {name!r} must be a number, got {data[name]!r}")
    return data


@dataclasses.dataclass(frozen=True)
class ArrivalSpec:
    """How one workload thread spaces its sends.

    ``constant`` uses the legacy fixed interval derived from the rate
    limit. ``poisson`` draws exponential inter-send gaps with the same
    mean. ``burst`` alternates ``on_s`` seconds of sending with
    ``off_s`` seconds of silence; during on-periods the rate is
    multiplied by ``factor`` (0 = the rate-preserving default
    ``(on_s + off_s) / on_s``, so the *average* offered rate still
    matches the configured rate limit). ``ramp`` scales the rate
    linearly from ``start_factor`` to ``end_factor`` over the send
    window. ``replay`` sends at the recorded ``times`` offsets
    (seconds from phase start), distributed round-robin over threads.
    """

    kind: str = "constant"
    on_s: float = 1.0
    off_s: float = 1.0
    factor: float = 0.0
    start_factor: float = 0.1
    end_factor: float = 1.0
    times: typing.Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; known: {list(ARRIVAL_KINDS)}"
            )
        if self.kind == "burst":
            if self.on_s <= 0 or self.off_s < 0:
                raise ValueError(
                    f"burst needs on_s > 0 and off_s >= 0, got "
                    f"on_s={self.on_s}, off_s={self.off_s}"
                )
            if self.factor < 0:
                raise ValueError(f"burst factor must be >= 0, got {self.factor}")
        if self.kind == "ramp":
            if self.start_factor <= 0 or self.end_factor <= 0:
                raise ValueError(
                    f"ramp factors must be > 0, got "
                    f"{self.start_factor}..{self.end_factor}"
                )
        if self.kind == "replay":
            if not self.times:
                raise ValueError("replay needs a non-empty 'times' list")
            if any(t < 0 for t in self.times):
                raise ValueError("replay times must be >= 0")
            if list(self.times) != sorted(self.times):
                raise ValueError("replay times must be sorted ascending")

    @property
    def burst_factor(self) -> float:
        """The effective on-period rate multiplier of a burst."""
        if self.factor > 0:
            return self.factor
        return (self.on_s + self.off_s) / self.on_s

    def to_dict(self) -> typing.Dict[str, object]:
        data: typing.Dict[str, object] = {"kind": self.kind}
        if self.kind == "burst":
            data.update(on_s=self.on_s, off_s=self.off_s)
            if self.factor:
                data["factor"] = self.factor
        elif self.kind == "ramp":
            data.update(start_factor=self.start_factor, end_factor=self.end_factor)
        elif self.kind == "replay":
            data["times"] = list(self.times)
        return data

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, object]) -> "ArrivalSpec":
        kwargs = dict(_check_fields(
            data, "arrival", {f.name for f in dataclasses.fields(cls)},
            numbers=("on_s", "off_s", "factor", "start_factor", "end_factor"),
        ))
        if "times" in kwargs:
            times = kwargs["times"]
            if not isinstance(times, (list, tuple)) or not all(_is_number(t) for t in times):
                raise ValueError(f"arrival 'times' must be a list of numbers, got {times!r}")
            kwargs["times"] = tuple(float(t) for t in times)
        return cls(**typing.cast(typing.Dict[str, typing.Any], kwargs))


@dataclasses.dataclass(frozen=True)
class AccessSpec:
    """Which keys/accounts operations touch.

    ``disjoint`` is the paper's layout: every thread owns a private,
    sequential identifier space, so no two writes ever collide. The
    other kinds draw indexes into a fixed universe of ``key_space``
    keys per client (or one universe shared by *all* clients when
    ``shared`` is set, the maximum-contention layout):

    * ``uniform`` — every key equally likely;
    * ``zipfian`` — rank ``i`` drawn with probability proportional to
      ``1/(i+1)**theta`` (YCSB's skew parameter; 0.99 is the classic
      default);
    * ``hotspot`` — with probability ``hot_prob`` draw uniformly from
      the hottest ``hot_fraction`` of the universe, otherwise from the
      remainder.

    Read-type operations (Get, Balance, payment endpoints) draw from
    the history of identifiers the client has already written, through
    the same distribution, so reads are skewed but never miss.
    """

    kind: str = "disjoint"
    theta: float = 0.99
    hot_fraction: float = 0.1
    hot_prob: float = 0.9
    key_space: int = 1000
    shared: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ACCESS_KINDS:
            raise ValueError(
                f"unknown access kind {self.kind!r}; known: {list(ACCESS_KINDS)}"
            )
        if self.kind != "disjoint":
            if self.key_space < 1:
                raise ValueError(f"key_space must be >= 1, got {self.key_space}")
        if self.kind == "zipfian":
            if not 0.0 < self.theta < 1.0:
                raise ValueError(
                    f"zipfian theta must be in (0, 1), got {self.theta}"
                )
        if self.kind == "hotspot":
            if not 0.0 < self.hot_fraction < 1.0:
                raise ValueError(
                    f"hotspot hot_fraction must be in (0, 1), got {self.hot_fraction}"
                )
            if not 0.0 <= self.hot_prob <= 1.0:
                raise ValueError(
                    f"hotspot hot_prob must be in [0, 1], got {self.hot_prob}"
                )

    def to_dict(self) -> typing.Dict[str, object]:
        data: typing.Dict[str, object] = {"kind": self.kind}
        if self.kind == "disjoint":
            return data
        data["key_space"] = self.key_space
        if self.shared:
            data["shared"] = True
        if self.kind == "zipfian":
            data["theta"] = self.theta
        elif self.kind == "hotspot":
            data.update(hot_fraction=self.hot_fraction, hot_prob=self.hot_prob)
        return data

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, object]) -> "AccessSpec":
        kwargs = _check_fields(
            data, "access", {f.name for f in dataclasses.fields(cls)},
            numbers=("theta", "hot_fraction", "hot_prob"),
        )
        key_space = kwargs.get("key_space", cls.key_space)
        if not isinstance(key_space, int) or isinstance(key_space, bool):
            raise ValueError(f"access 'key_space' must be an integer, got {key_space!r}")
        shared = kwargs.get("shared", cls.shared)
        if not isinstance(shared, bool):
            raise ValueError(f"access 'shared' must be true or false, got {shared!r}")
        return cls(**typing.cast(typing.Dict[str, typing.Any], dict(kwargs)))


#: An operation mix: ((function, weight), ...), weights > 0.
Mix = typing.Tuple[typing.Tuple[str, float], ...]


def normalize_mix(
    mix: typing.Union[None, typing.Mapping[str, float], Mix]
) -> typing.Optional[Mix]:
    """Canonicalise a mix to a sorted tuple of (function, weight) pairs."""
    if mix is None:
        return None
    if isinstance(mix, typing.Mapping):
        pairs = list(mix.items())
    elif isinstance(mix, (list, tuple)) and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in mix
    ):
        pairs = list(mix)
    else:
        raise ValueError(f"a mix must map operations to weights, got {mix!r}")
    if not pairs:
        return None
    for function, weight in pairs:
        if not isinstance(function, str) or not function:
            raise ValueError(f"mix operation names must be strings, got {function!r}")
        if not (isinstance(weight, (int, float)) and weight > 0):
            raise ValueError(
                f"mix weight for {function!r} must be > 0, got {weight!r}"
            )
    names = [function for function, __ in pairs]
    if len(names) != len(set(names)):
        raise ValueError(f"duplicate operations in mix: {sorted(names)}")
    return tuple(sorted((function, float(weight)) for function, weight in pairs))


@dataclasses.dataclass(frozen=True)
class PhaseOverride:
    """Per-phase overrides inside a multi-phase scenario script."""

    arrival: typing.Optional[ArrivalSpec] = None
    access: typing.Optional[AccessSpec] = None
    mix: typing.Optional[Mix] = None

    def to_dict(self) -> typing.Dict[str, object]:
        data: typing.Dict[str, object] = {}
        if self.arrival is not None:
            data["arrival"] = self.arrival.to_dict()
        if self.access is not None:
            data["access"] = self.access.to_dict()
        if self.mix is not None:
            data["mix"] = dict(self.mix)
        return data

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, object]) -> "PhaseOverride":
        _check_fields(data, "phase override", {"arrival", "access", "mix"})
        return cls(
            arrival=(
                ArrivalSpec.from_dict(typing.cast(dict, data["arrival"]))
                if "arrival" in data
                else None
            ),
            access=(
                AccessSpec.from_dict(typing.cast(dict, data["access"]))
                if "access" in data
                else None
            ),
            mix=normalize_mix(typing.cast(dict, data.get("mix"))),
        )


@dataclasses.dataclass(frozen=True)
class ResolvedPhase:
    """One phase's effective workload shape after applying overrides."""

    arrival: ArrivalSpec
    access: AccessSpec
    mix: typing.Optional[Mix]


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark unit's declarative workload model."""

    name: str = ""
    arrival: ArrivalSpec = dataclasses.field(default_factory=ArrivalSpec)
    access: AccessSpec = dataclasses.field(default_factory=AccessSpec)
    mix: typing.Optional[Mix] = None
    #: Scenario script: ((phase name, PhaseOverride), ...).
    phases: typing.Tuple[typing.Tuple[str, PhaseOverride], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mix", normalize_mix(self.mix))
        names = [phase for phase, __ in self.phases]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate phase overrides: {sorted(names)}")

    # -- resolution ------------------------------------------------------

    @property
    def is_default(self) -> bool:
        """Whether this spec reproduces the legacy generator exactly."""
        return (
            self.arrival.kind == "constant"
            and self.access.kind == "disjoint"
            and self.mix is None
            and not self.phases
        )

    def override_for(self, phase: str) -> typing.Optional[PhaseOverride]:
        for name, override in self.phases:
            if name == phase:
                return override
        return None

    def for_phase(self, phase: str) -> ResolvedPhase:
        """The effective arrival/access/mix of one phase."""
        override = self.override_for(phase)
        if override is None:
            return ResolvedPhase(self.arrival, self.access, self.mix)
        return ResolvedPhase(
            arrival=override.arrival or self.arrival,
            access=override.access or self.access,
            mix=override.mix if override.mix is not None else self.mix,
        )

    def validate_for(self, iel: str, unit_phases: typing.Sequence[str]) -> None:
        """Eagerly reject specs that cannot drive one IEL's unit.

        Raises :class:`ValueError` naming the offending phase or
        operation instead of failing mid-run.
        """
        from repro.workloads.mixes import allowed_operations

        allowed = allowed_operations(iel)
        for phase, __ in self.phases:
            if phase not in unit_phases:
                raise ValueError(
                    f"workload overrides unknown phase {phase!r}; the {iel} "
                    f"unit has phases {list(unit_phases)}"
                )
        for phase in unit_phases:
            resolved = self.for_phase(phase)
            if resolved.mix is None:
                continue
            unknown = [op for op, __ in resolved.mix if op not in allowed]
            if unknown:
                raise ValueError(
                    f"workload mix for phase {phase!r} uses operations "
                    f"{unknown} unknown to IEL {iel!r}; allowed: {sorted(allowed)}"
                )

    # -- labelling -------------------------------------------------------

    def short_label(self) -> str:
        """A compact, filename-friendly tag for config labels."""
        if self.is_default:
            return ""
        if self.name:
            tag = "".join(ch if ch.isalnum() else "-" for ch in self.name)
        else:
            parts = []
            if self.arrival.kind != "constant":
                parts.append(self.arrival.kind)
            if self.access.kind != "disjoint":
                parts.append(self.access.kind)
            if self.mix is not None:
                parts.append("mix")
            if self.phases:
                parts.append("scenario")
            tag = "-".join(parts) or "custom"
        import hashlib

        digest = hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:6]
        return f"{tag}-{digest}"

    # -- (de)serialisation ----------------------------------------------

    def to_dict(self) -> typing.Dict[str, object]:
        data: typing.Dict[str, object] = {}
        if self.name:
            data["name"] = self.name
        if self.arrival.kind != "constant":
            data["arrival"] = self.arrival.to_dict()
        if self.access.kind != "disjoint":
            data["access"] = self.access.to_dict()
        if self.mix is not None:
            data["mix"] = dict(self.mix)
        if self.phases:
            data["phases"] = {
                phase: override.to_dict() for phase, override in self.phases
            }
        return data

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, object]) -> "WorkloadSpec":
        unknown = set(data) - {"name", "arrival", "access", "mix", "phases"}
        if unknown:
            raise ValueError(f"unknown workload fields: {sorted(unknown)}")
        phases_data = typing.cast(
            typing.Mapping[str, typing.Mapping[str, object]], data.get("phases", {})
        )
        if not isinstance(phases_data, typing.Mapping):
            raise ValueError('"phases" must be an object of per-phase overrides')
        return cls(
            name=str(data.get("name", "")),
            arrival=(
                ArrivalSpec.from_dict(typing.cast(dict, data["arrival"]))
                if "arrival" in data
                else ArrivalSpec()
            ),
            access=(
                AccessSpec.from_dict(typing.cast(dict, data["access"]))
                if "access" in data
                else AccessSpec()
            ),
            mix=normalize_mix(typing.cast(dict, data.get("mix"))),
            phases=tuple(
                sorted(
                    (phase, PhaseOverride.from_dict(override))
                    for phase, override in phases_data.items()
                )
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("workload spec JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def from_json_file(cls, path: str) -> "WorkloadSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def __repr__(self) -> str:
        if self.is_default:
            return "<WorkloadSpec legacy>"
        return f"<WorkloadSpec {self.short_label()}>"


#: The paper's workload: constant arrivals over disjoint key spaces.
DEFAULT_WORKLOAD = WorkloadSpec()
