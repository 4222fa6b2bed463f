"""Link latency models.

The evaluation uses two settings: the data-centre baseline (all servers in
one Helsinki facility — sub-millisecond latency) and the netem emulation of
a European wide-area deployment (normal distribution with mu = 12 ms,
derived from WonderNetwork pings). Both are expressed as `LatencyModel`
subclasses sampled per message.
"""

from __future__ import annotations

import abc
import random
import typing


class LatencyModel(abc.ABC):
    """Samples a one-way propagation delay in seconds per message."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Return a non-negative delay in seconds."""

    def fixed_delay(self) -> typing.Optional[float]:
        """The constant delay of a jitter-free model, else ``None``.

        The network precomputes per-route delays for jitter-free models
        so the per-message hot path skips the ``sample()`` call (which
        never consults the RNG for such models anyway — skipping it
        cannot shift any random stream).
        """
        return None

    def normal_parameters(self) -> typing.Optional[typing.Tuple[float, float]]:
        """``(mean, jitter)`` of a normal model truncated at zero, else ``None``.

        The network caches these per route and draws
        ``max(0.0, rng.gauss(mean, jitter))`` itself, so the per-message
        path skips ``sample()``. The draw is the one ``sample()`` makes:
        the same RNG call, the same float.
        """
        return None

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        return self.__class__.__name__


class ConstantLatency(LatencyModel):
    """A fixed delay — the deterministic baseline for unit tests."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative latency: {delay}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def fixed_delay(self) -> typing.Optional[float]:
        return self.delay

    def describe(self) -> str:
        return f"constant({self.delay * 1000:.3f} ms)"


class LoopbackLatency(ConstantLatency):
    """Delay between endpoints on the same host (Docker bridge hop)."""

    def __init__(self, delay: float = 0.00005) -> None:
        super().__init__(delay)

    def describe(self) -> str:
        return f"loopback({self.delay * 1e6:.0f} us)"


class UniformLatency(LatencyModel):
    """Uniformly distributed delay in ``[low, high]`` seconds."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise ValueError(f"invalid uniform latency bounds [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def describe(self) -> str:
        return f"uniform({self.low * 1000:.2f}..{self.high * 1000:.2f} ms)"


class NetemLatency(LatencyModel):
    """The paper's netem emulation: normally distributed delay.

    Section 5.8.1 uses ``netem`` with a normal distribution, mu = 12 ms
    and jitter 2 ms (the paper writes sigma^2 = 2 ms; netem's second
    parameter is the jitter/stddev, which is what we use). Samples are
    truncated at zero as netem does.
    """

    def __init__(self, mean: float = 0.012, jitter: float = 0.002) -> None:
        if mean < 0 or jitter < 0:
            raise ValueError(f"invalid netem parameters mean={mean} jitter={jitter}")
        self.mean = mean
        self.jitter = jitter
        self._normal = (mean, jitter)  # one tuple, shared by every route

    def sample(self, rng: random.Random) -> float:
        return max(0.0, rng.gauss(self.mean, self.jitter))

    def normal_parameters(self) -> typing.Optional[typing.Tuple[float, float]]:
        return self._normal

    def describe(self) -> str:
        return f"netem(mu={self.mean * 1000:.1f} ms, jitter={self.jitter * 1000:.1f} ms)"


#: Latency inside the provider's data centre (same-rack 1 Gbit/s uplink).
DATACENTER_LATENCY = ConstantLatency(0.0004)

#: The paper's emulated European WAN latency.
EUROPEAN_WAN_LATENCY = NetemLatency(mean=0.012, jitter=0.002)
