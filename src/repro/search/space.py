"""Search spaces: typed, quantized parameter domains.

The paper's operators find each system's saturation point by sweeping
the rate limiter over a hand-picked grid (Section 4.4); a
:class:`SearchSpace` makes that grid explicit. Every domain is a closed
interval with a fixed step, so a search can only ever probe points of
the induced grid — probe sequences are reproducible, two strategies
exploring the same space compare like for like, and cache fingerprints
of repeated probes collide (a grid oracle run warms the cache for a
bisection run and vice versa).

The primary axis is the per-client rate limiter; block-finalization
parameters (block size, block time) can be added as secondary domains,
which the engine crosses into a grid of (params, rate-search) problems.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

#: Tolerance for float-step alignment checks.
_EPSILON = 1e-9


@dataclasses.dataclass(frozen=True)
class Domain:
    """One closed, stepped parameter interval: {low, low+step, ..., high}."""

    name: str
    low: float
    high: float
    step: float
    #: Integer domains (the rate limiter, block sizes) yield ints.
    integer: bool = True

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"{self.name}: step must be > 0, got {self.step}")
        if self.low > self.high:
            raise ValueError(
                f"{self.name}: low must be <= high, got [{self.low}, {self.high}]"
            )
        span_steps = (self.high - self.low) / self.step
        if abs(span_steps - round(span_steps)) > 1e-6:
            raise ValueError(
                f"{self.name}: high - low must be a multiple of step, "
                f"got [{self.low}, {self.high}] step {self.step}"
            )
        if self.integer:
            for bound in (self.low, self.high, self.step):
                if abs(bound - round(bound)) > _EPSILON:
                    raise ValueError(
                        f"{self.name}: integer domain needs integer bounds/step, "
                        f"got [{self.low}, {self.high}] step {self.step}"
                    )

    @property
    def count(self) -> int:
        """Number of grid points."""
        return int(round((self.high - self.low) / self.step)) + 1

    def value_at(self, index: int) -> typing.Union[int, float]:
        """The grid point at ``index`` (0 = low)."""
        if not 0 <= index < self.count:
            raise IndexError(f"{self.name}: index {index} outside 0..{self.count - 1}")
        value = self.low + index * self.step
        return int(round(value)) if self.integer else value

    def index_of(self, value: float) -> int:
        """The nearest grid index for ``value``, clamped to the domain."""
        raw = round((value - self.low) / self.step)
        return max(0, min(self.count - 1, int(raw)))

    def grid(self) -> typing.Tuple[typing.Union[int, float], ...]:
        """Every grid point, ascending."""
        return tuple(self.value_at(index) for index in range(self.count))

    def describe(self) -> str:
        """Compact ``name in [low..high] step s`` rendering."""
        if self.integer:
            return f"{self.name} in [{int(self.low)}..{int(self.high)}] step {int(self.step)}"
        return f"{self.name} in [{self.low}..{self.high}] step {self.step}"

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Domain":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class SearchSpace:
    """What a capacity search may vary.

    ``rate`` is the per-client rate limiter (the paper's RL column is
    this times the client count); ``params`` are optional system
    parameters (block size/time) whose grids the engine crosses — each
    combination gets its own rate search, and the report's knee is the
    best (params, rate) point overall.
    """

    rate: Domain
    params: typing.Tuple[Domain, ...] = ()

    def __post_init__(self) -> None:
        if not self.rate.integer or self.rate.low < 1:
            raise ValueError(
                f"rate domain must be integer with low >= 1, got {self.rate.describe()}"
            )
        names = [domain.name for domain in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate param domains: {names}")

    def combos(self) -> typing.Tuple[typing.Dict[str, object], ...]:
        """Every params combination, in grid order ({} when no params)."""
        if not self.params:
            return ({},)
        grids = [domain.grid() for domain in self.params]
        return tuple(
            dict(zip((domain.name for domain in self.params), values))
            for values in itertools.product(*grids)
        )

    def describe(self) -> str:
        """One-line space description for reports."""
        parts = [self.rate.describe()]
        parts.extend(domain.describe() for domain in self.params)
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "rate": self.rate.to_dict(),
            "params": [domain.to_dict() for domain in self.params],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpace":
        """Inverse of :meth:`to_dict`."""
        return cls(
            rate=Domain.from_dict(data["rate"]),
            params=tuple(Domain.from_dict(item) for item in data.get("params", [])),
        )


def rate_space(low: int, high: int, step: int) -> SearchSpace:
    """A rate-only search space (the common case)."""
    return SearchSpace(rate=Domain(name="rate_limit", low=low, high=high, step=step))
