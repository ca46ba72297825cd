"""Unit tests for the deterministic random-stream registry and its draws."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.simulation.network as network_module
from repro.simulation import NetworkModel, QueueingServer, Simulator
from repro.simulation.randomness import (
    _CHUNK,
    LognormalSampler,
    RandomStreams,
    lognormal_from_mean_cv,
)


def test_same_seed_same_stream_same_sequence():
    a = RandomStreams(seed=7).stream("workload").random(10)
    b = RandomStreams(seed=7).stream("workload").random(10)
    assert np.allclose(a, b)


def test_different_names_give_independent_streams():
    streams = RandomStreams(seed=7)
    a = streams.stream("a").random(10)
    b = streams.stream("b").random(10)
    assert not np.allclose(a, b)


def test_stream_identity_is_cached():
    streams = RandomStreams(seed=1)
    assert streams.stream("x") is streams.stream("x")


def test_creation_order_does_not_change_streams():
    first = RandomStreams(seed=3)
    first.stream("alpha")
    alpha_then_beta = first.stream("beta").random(5)

    second = RandomStreams(seed=3)
    beta_only = second.stream("beta").random(5)
    assert np.allclose(alpha_then_beta, beta_only)


def test_spawn_family_members_are_distinct_and_stable():
    streams = RandomStreams(seed=9)
    node0 = streams.spawn("node", 0).random(5)
    node1 = streams.spawn("node", 1).random(5)
    assert not np.allclose(node0, node1)
    again = RandomStreams(seed=9).spawn("node", 0).random(5)
    assert np.allclose(node0, again)


def test_streams_bulk_creation_and_known_streams():
    streams = RandomStreams(seed=2)
    created = streams.streams(["x", "y"])
    assert set(created) == {"x", "y"}
    assert set(streams.known_streams()) == {"x", "y"}


def test_normals_is_one_lazy_source_per_name():
    streams = RandomStreams(seed=4)
    fresh = RandomStreams(seed=4).stream("n").bit_generator.state
    source = streams.normals("n")
    assert streams.normals("n") is source
    # Nothing is drawn before the first call.
    assert streams.stream("n").bit_generator.state == fresh
    values = [source() for _ in range(5)]
    assert values == RandomStreams(seed=4).stream("n").standard_normal(5).tolist()
    assert all(type(value) is float for value in values)


def test_a_scalar_generator_draw_is_already_a_python_float():
    # The per-message jitter, the sampler and the interleaved arrival gap
    # return the generator's draw as it is, with no float() around it.
    rng = np.random.default_rng(0)
    mu, sigma = np.log(2.0), np.sqrt(np.log(1.25))
    assert type(mu) is np.float64
    assert type(rng.lognormal(mu, sigma)) is float
    assert type(rng.exponential(0.5)) is float
    assert type(rng.exponential(np.float64(0.5))) is float
    assert type(LognormalSampler(0.5).sample(rng, 2.0)) is float


def test_lognormal_mean_and_degenerate_cases():
    rng = np.random.default_rng(0)
    samples = [lognormal_from_mean_cv(rng, 10.0, 0.5) for _ in range(8000)]
    assert abs(np.mean(samples) - 10.0) < 0.5
    assert lognormal_from_mean_cv(rng, 10.0, 0.0) == 10.0
    assert lognormal_from_mean_cv(rng, 0.0, 0.5) == 0.0


def test_send_and_submit_touch_their_generators_only_at_a_refill():
    simulator = Simulator(seed=5)
    network = NetworkModel(simulator)
    server = QueueingServer(simulator, "s", service_cv=0.25)
    generators = [simulator.streams.stream("network"), simulator.streams.stream("server:s")]

    def states():
        return [generator.bit_generator.state for generator in generators]

    def hop():
        network.send("a", "b", lambda: None)
        server.submit(0.001, lambda _time: None)

    fresh = states()
    hop()
    first_chunk = states()
    assert all(before != after for before, after in zip(fresh, first_chunk))
    for _ in range(_CHUNK - 1):
        hop()
    assert states() == first_chunk
    hop()
    assert all(before != after for before, after in zip(first_chunk, states()))


def test_a_draw_past_the_largest_float_raises_overflow_error(monkeypatch):
    # numpy's lognormal returned inf here, which failed later as an
    # unschedulable event time; math.exp raises at the draw.
    sampler = LognormalSampler(1.0)
    normal = iter([0.0, 5.0]).__next__
    assert sampler.sample_with(normal, 1e307) < math.inf
    with pytest.raises(OverflowError):
        sampler.sample_with(normal, 1e307)
    simulator = Simulator(seed=5)
    monkeypatch.setattr(network_module, "BASE_LATENCY", 1e308)
    monkeypatch.setattr(network_module, "JITTER_CV", 1.0)
    network = NetworkModel(simulator)
    with pytest.raises(OverflowError):
        for _ in range(100):
            network.send("a", "b", lambda: None)
