"""The route's inlined link delay equals ``Link.delay`` bit for bit.

``Network._transmit`` computes propagation + serialisation itself for
jitter-free models (no draw) and normal models (one ``gauss`` clamped
at zero), and falls back to ``Link.delay`` for any other model. These
tests hold every path to the floats and RNG draws ``Link.delay`` makes
on a twin stream.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import ConstantLatency, Host, Link, NetemLatency, Network, UniformLatency
from repro.sim import Simulator
from tests.net.test_network import Recorder

STREAM = "network:net"  # the stream a Network named "net" draws from


def send_and_time(seed, model, size, bandwidth, sends):
    """At time 0, send one message from ``a`` to each of ``sends``
    endpoints on their own hosts; returns the simulator and each
    message's arrival time, in send order."""
    sim = Simulator(seed=seed)
    network = Network(sim, default_latency=model)
    network.attach(Recorder("a", sim), Host("h-a", bandwidth_bps=bandwidth))
    receivers = [Recorder(f"b{index}", sim) for index in range(sends)]
    for receiver in receivers:
        network.attach(receiver, Host(f"h-{receiver.endpoint_id}"))
        network.endpoint("a").send(receiver.endpoint_id, "m", size_bytes=size)
    sim.run()
    return sim, [arrival for receiver in receivers for arrival, __, __ in receiver.received]


def twin(seed, model, size, bandwidth, sends):
    """The delays ``Link.delay`` gives on a twin stream, and the stream."""
    rng = Simulator(seed=seed).rng.stream(STREAM)
    link = Link(Host("h-a", bandwidth_bps=bandwidth), Host("h-b"), model)
    return [link.delay(size, rng) for __ in range(sends)], rng


class TestNormalRoute:
    @settings(max_examples=150, deadline=None)
    @given(
        mean=st.floats(0.0, 0.05),
        jitter=st.floats(0.0, 0.05),
        size=st.integers(0, 10_000_000),
        bandwidth=st.floats(1e3, 1e10),
        seed=st.integers(0, 2**32),
    )
    @example(mean=0.0005, jitter=0.01, size=256, bandwidth=125e6, seed=4)  # clamps often
    @example(mean=0.0, jitter=0.0, size=0, bandwidth=1e3, seed=0)
    def test_matches_link_delay(self, mean, jitter, size, bandwidth, seed):
        model = NetemLatency(mean, jitter)
        sim, arrivals = send_and_time(seed, model, size, bandwidth, sends=3)
        expected, rng = twin(seed, model, size, bandwidth, sends=3)
        assert arrivals == expected
        # Same draws, so the same stream state, gauss()'s cached
        # second value included.
        assert sim.rng.stream(STREAM).getstate() == rng.getstate()

    def test_clamped_draw_matches(self):
        model = NetemLatency(mean=0.0001, jitter=0.01)
        clamped = 0
        for seed in range(40):
            rng = Simulator(seed=seed).rng.stream(STREAM)
            if model.sample(rng) == 0.0:
                clamped += 1
                __, arrivals = send_and_time(seed, model, 256, 125e6, sends=1)
                assert arrivals == twin(seed, model, 256, 125e6, sends=1)[0]
                assert arrivals == [256 / 125e6]
        assert clamped > 0


class TestOtherRoutes:
    def test_constant_route_draws_nothing(self):
        model = ConstantLatency(0.004)
        sim, arrivals = send_and_time(7, model, 512, 1e6, sends=3)
        expected, rng = twin(7, model, 512, 1e6, sends=3)
        assert arrivals == expected
        assert sim.rng.stream(STREAM).getstate() == rng.getstate()
        assert rng.getstate() == Simulator(seed=7).rng.stream(STREAM).getstate()

    def test_uniform_route_samples_through_the_link(self):
        model = UniformLatency(0.001, 0.003)
        sim, arrivals = send_and_time(7, model, 512, 1e6, sends=3)
        expected, rng = twin(7, model, 512, 1e6, sends=3)
        assert arrivals == expected
        assert sim.rng.stream(STREAM).getstate() == rng.getstate()

    def test_only_the_normal_model_exposes_parameters(self):
        assert NetemLatency(0.012, 0.002).normal_parameters() == (0.012, 0.002)
        for model in (ConstantLatency(0.001), UniformLatency(0.001, 0.002)):
            assert model.normal_parameters() is None
