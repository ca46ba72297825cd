"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import ConsistencyLevel, HashRing, StorageEngine, VersionStamp, VersionedValue
from repro.cluster.versioning import compare_versions
from repro.consistency import StalenessModel
from repro.core.forecasting import EwmaForecaster, HoltWintersForecaster
from repro.middleware.builtin import RandomReplicaSelection
from repro.monitoring import WindowedPercentiles
from repro.simulation import TimeSeries
from repro.simulation.timeseries import exact_percentiles
from repro.simulation.randomness import _CHUNK, LognormalSampler, RandomStreams
from repro.workload import ZipfianKeys, make_distribution

settings.register_profile(
    "repro", deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# Hash ring invariants
# ----------------------------------------------------------------------
node_names = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6), min_size=1, max_size=8, unique=True
)


@given(nodes=node_names, key=st.text(min_size=1, max_size=20), rf=st.integers(1, 5))
def test_ring_preference_list_invariants(nodes, key, rf):
    ring = HashRing(virtual_nodes=16)
    for node in nodes:
        ring.add_node(node)
    prefs = ring.preference_list(key, rf)
    # Size is min(rf, n), entries unique and drawn from the members.
    assert len(prefs) == min(rf, len(nodes))
    assert len(set(prefs)) == len(prefs)
    assert set(prefs) <= set(nodes)
    # Determinism.
    assert prefs == ring.preference_list(key, rf)


@given(nodes=node_names, key=st.text(min_size=1, max_size=20))
def test_ring_smaller_rf_is_prefix_of_larger(nodes, key):
    ring = HashRing(virtual_nodes=16)
    for node in nodes:
        ring.add_node(node)
    smaller = ring.preference_list(key, 2)
    larger = ring.preference_list(key, 4)
    assert larger[: len(smaller)] == smaller


# ----------------------------------------------------------------------
# Versioning / storage invariants
# ----------------------------------------------------------------------
version_strategy = st.builds(
    VersionedValue,
    stamp=st.builds(
        VersionStamp,
        timestamp=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        sequence=st.integers(0, 10_000),
    ),
    value=st.just(b"v"),
    write_id=st.integers(0, 1000),
    size=st.integers(1, 4096),
)


@given(versions=st.lists(version_strategy, min_size=1, max_size=20))
def test_storage_lww_keeps_global_maximum(versions):
    engine = StorageEngine("n")
    for version in versions:
        engine.apply("k", version)
    newest = max(versions, key=lambda v: v.stamp)
    assert engine.peek("k").stamp == newest.stamp


@given(a=version_strategy, b=version_strategy)
def test_compare_versions_is_antisymmetric(a, b):
    assert compare_versions(a, b) == -compare_versions(b, a)


# ----------------------------------------------------------------------
# Consistency-level arithmetic
# ----------------------------------------------------------------------
@given(rf=st.integers(1, 9))
def test_consistency_level_ack_bounds(rf):
    for level in ConsistencyLevel:
        acks = level.required_acks(rf)
        assert 1 <= acks <= rf
    assert ConsistencyLevel.QUORUM.required_acks(rf) == rf // 2 + 1
    assert ConsistencyLevel.ALL.required_acks(rf) == rf


@given(rf=st.integers(1, 7))
def test_quorum_reads_and_writes_always_intersect(rf):
    assert ConsistencyLevel.is_strongly_consistent(
        ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM, rf
    )


# ----------------------------------------------------------------------
# Read-replica selection draws what ``permutation`` drew
# ----------------------------------------------------------------------
# ``RandomReplicaSelection`` shuffles a list of names where it used to index
# them by ``rng.permutation(n)[:required]``.  The two make the same draws only
# because numpy builds ``permutation(n)`` as ``arange(n)`` shuffled by the same
# Fisher-Yates loop ``shuffle`` runs over a list -- a property of numpy's
# implementation, not of its documentation (PERFORMANCE.md rule 2).  This pins
# it on the coordinator's stream as the request path uses it: picks
# interleaved with the other draws made from that generator.
_replica_steps = st.lists(
    st.one_of(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(st.just("pick"), st.just(n), st.integers(1, n))
        ),
        st.tuples(
            st.sampled_from(["random", "lognormal", "exponential"]), st.just(0), st.just(0)
        ),
        st.tuples(st.just("integers"), st.integers(1, 2**40), st.just(0)),
        st.tuples(st.just("permutation"), st.integers(1, 8), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


def _permutation_pick(rng, live, required):
    if len(live) <= required:
        return None
    return [live[int(i)] for i in rng.permutation(len(live))[:required]]


def _replay(rng, steps, pick):
    drawn = []
    for kind, a, b in steps:
        if kind == "pick":
            drawn.append(pick(rng, [f"node-{i}" for i in range(a)], b))
        elif kind == "random":
            drawn.append(rng.random())
        elif kind == "lognormal":
            drawn.append(rng.lognormal(0.0, 0.5))
        elif kind == "exponential":
            drawn.append(rng.exponential(2.0))
        elif kind == "integers":
            drawn.append(int(rng.integers(0, a)))
        else:
            drawn.append(rng.permutation(a).tolist())
    return drawn


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), steps=_replica_steps)
def test_replica_shuffle_draws_what_permutation_drew(seed, steps):
    shuffled = np.random.default_rng(seed)
    stage = RandomReplicaSelection(shuffled)
    picks = _replay(
        shuffled, steps, lambda rng, live, required: stage.select_read_targets(None, live, required)
    )
    reference = np.random.default_rng(seed)
    assert picks == _replay(reference, steps, _permutation_pick)
    # Equal generator state, including the buffered 32-bit half
    # (``has_uint32``/``uinteger``) that bounded draws leave behind.
    assert shuffled.bit_generator.state == reference.bit_generator.state


# ----------------------------------------------------------------------
# A normal-fed lognormal draws what ``rng.lognormal`` drew
# ----------------------------------------------------------------------
# The network jitter and the service noise are ``exp(mu + sigma * z)`` with
# ``z`` from ``RandomStreams.normals``, where they were ``rng.lognormal(mu,
# sigma)``.  The two are equal only because numpy computes a lognormal as
# ``exp(loc + scale * standard_normal())`` with the libm ``exp`` that
# ``math.exp`` calls, and fills ``standard_normal(n)`` with the values n
# scalar draws would give -- properties of numpy's implementation, not of its
# documentation (PERFORMANCE.md rule 2).  This pins them for interleaved means
# across a chunk boundary.
@given(
    seed=st.integers(0, 2**32 - 1),
    cv=st.floats(min_value=0.0, max_value=1.0),
    means=st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=8),
)
def test_a_normal_fed_lognormal_draws_what_lognormal_drew(seed, cv, means):
    sampler = LognormalSampler(cv)
    streams = RandomStreams(seed)
    normal = streams.normals("jitter")
    reference = RandomStreams(seed).stream("jitter")
    # Two whole chunks: the second refill is crossed, and both generators
    # have then made the same number of normal draws (none at cv 0).
    order = [means[i % len(means)] for i in range(2 * _CHUNK)]
    fed = [sampler.sample_with(normal, mean) for mean in order]
    assert fed == [sampler.sample(reference, mean) for mean in order]
    assert streams.stream("jitter").bit_generator.state == reference.bit_generator.state


# ----------------------------------------------------------------------
# The exact percentile rule answers what ``np.percentile`` answered
# ----------------------------------------------------------------------
# ``exact_percentiles`` writes numpy's ``linear`` method out over one sort:
# the position ``(n - 1) * q / 100``, both neighbours clipped to the last
# sample from there on (at a weight measured from index -1), the two-sided
# lerp that switches at a weight of 0.5, NaN as every answer when a sample is
# NaN, and the range check.  That these are numpy's steps is a property of its
# implementation, not of its documentation (PERFORMANCE.md rule 2).  The
# answers are the same bits, but for the sign of a zero answer when the
# samples hold both ``-0.0`` and ``0.0``: the sort and numpy's partition may
# order those two apart.
_EDGE_SAMPLES = (
    0.0, -0.0, 1.0, 1.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308
)


def _same(answer, expected, zeros_of_both_signs):
    if math.isnan(expected):
        return math.isnan(answer)
    if zeros_of_both_signs:
        return answer == expected
    return answer == expected and math.copysign(1.0, answer) == math.copysign(1.0, expected)


@settings(max_examples=500)
@given(
    samples=st.lists(
        st.one_of(st.floats(), st.sampled_from(_EDGE_SAMPLES)), min_size=1, max_size=60
    ),
    qs=st.lists(
        st.one_of(
            st.sampled_from((0, 100, 0.0, 100.0, 50, 95, 99)), st.floats(min_value=0, max_value=100)
        ),
        min_size=1,
        max_size=5,
    ),
    container=st.sampled_from((list, deque, np.array)),
)
@example(samples=[3.5], qs=[0, 50, 100], container=deque)
@example(samples=[0.1, 0.7], qs=[50], container=list)
@example(samples=[1.0, math.inf, 1.0], qs=[25, 100], container=np.array)
@example(samples=[-1.0, -0.0, -0.0], qs=[100], container=np.array)
@example(samples=[2.0, math.nan, -1.0], qs=[0, 99], container=deque)
@example(samples=[5e-324, -5e-324, -0.0, 0.0, 2.2e-308], qs=[0, 37.5, 100], container=list)
def test_exact_percentiles_answer_what_np_percentile_answered(samples, qs, container):
    values = container(samples)
    with np.errstate(all="ignore"):
        expected = [float(value) for value in np.percentile(np.asarray(samples), qs)]
    answers = exact_percentiles(values, qs)
    assert [type(answer) for answer in answers] == [float] * len(qs)
    signs = {math.copysign(1.0, sample) for sample in samples if sample == 0.0}
    assert all(_same(a, e, len(signs) == 2) for a, e in zip(answers, expected)), (
        samples,
        qs,
        answers,
        expected,
    )


@pytest.mark.parametrize("q", [-1, 100.5, math.nan])
def test_exact_percentiles_refuse_what_np_percentile_refused(q):
    with pytest.raises(ValueError) as numpy_refused:
        np.percentile([1.0, 2.0], [50, q])
    for samples in ([1.0, 2.0], []):
        with pytest.raises(ValueError) as refused:
            exact_percentiles(samples, [50, q])
        assert str(refused.value) == str(numpy_refused.value)


# ----------------------------------------------------------------------
# PBS model invariants
# ----------------------------------------------------------------------
@given(
    lag=st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
    rf=st.integers(1, 7),
    t=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
def test_pbs_probability_is_valid_and_monotone_in_acks(lag, rf, t):
    model = StalenessModel(mean_replication_lag=lag)
    previous = 1.1
    for read_acks in range(1, rf + 1):
        p = model.stale_probability(t, rf, read_acks=read_acks, write_acks=1)
        assert 0.0 <= p <= 1.0
        assert p <= previous + 1e-9
        previous = p


@given(lag=st.floats(min_value=0.001, max_value=5.0), rf=st.integers(2, 6))
def test_pbs_probability_decreases_over_time(lag, rf):
    model = StalenessModel(mean_replication_lag=lag)
    samples = [model.stale_probability(t, rf, 1, 1) for t in (0.0, lag, 3 * lag, 10 * lag)]
    for earlier, later in zip(samples, samples[1:]):
        assert later <= earlier + 1e-9


# ----------------------------------------------------------------------
# Streaming percentiles
# ----------------------------------------------------------------------
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=400))
def test_windowed_percentiles_bounded_by_min_max(values):
    window = WindowedPercentiles(window=500)
    for value in values:
        window.observe(value)
    for q in (0, 50, 95, 100):
        assert min(values) - 1e-9 <= window.percentile(q) <= max(values) + 1e-9


# ----------------------------------------------------------------------
# Time series invariants
# ----------------------------------------------------------------------
@given(
    samples=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        ),
        min_size=2,
        max_size=100,
    )
)
def test_timeseries_integral_matches_numpy(samples):
    ordered = sorted(samples, key=lambda pair: pair[0])
    series = TimeSeries("x")
    last_time = None
    for time, value in ordered:
        if last_time is not None and time <= last_time:
            time = last_time + 1e-6
        series.record(time, value)
        last_time = time
    times = np.asarray(series.times)
    values = np.asarray(series.values)
    expected = float(np.sum(values[:-1] * np.diff(times)))
    assert series.integrate() == pytest.approx(expected, rel=1e-9, abs=1e-6)


# ----------------------------------------------------------------------
# Workload distributions
# ----------------------------------------------------------------------
@given(
    record_count=st.integers(2, 5000),
    name=st.sampled_from(["uniform", "zipfian", "latest", "hotspot"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_distributions_stay_in_range(record_count, name, seed):
    distribution = make_distribution(name, record_count)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        index = distribution.next_index(rng)
        assert 0 <= index < record_count


@given(theta=st.floats(min_value=0.1, max_value=0.99), seed=st.integers(0, 1000))
def test_zipfian_any_theta_valid(theta, seed):
    distribution = ZipfianKeys(100, theta=theta)
    rng = np.random.default_rng(seed)
    draws = [distribution.next_index(rng) for _ in range(100)]
    assert all(0 <= d < 100 for d in draws)


# ----------------------------------------------------------------------
# Forecasters
# ----------------------------------------------------------------------
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=100))
def test_ewma_forecast_bounded_by_observed_range(values):
    forecaster = EwmaForecaster()
    for i, value in enumerate(values):
        forecaster.observe(float(i), value)
    forecast = forecaster.forecast(10.0)
    assert min(values) - 1e-6 <= forecast <= max(values) + 1e-6


@given(
    values=st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=2, max_size=100),
    horizon=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
def test_holt_winters_forecast_is_finite_and_non_negative(values, horizon):
    forecaster = HoltWintersForecaster()
    for i, value in enumerate(values):
        forecaster.observe(float(i * 10), value)
    forecast = forecaster.forecast(horizon)
    assert np.isfinite(forecast)
    assert forecast >= 0.0
