"""Bit-identity locks for the optimised kernel and data plane.

The fast-path work (tuple-keyed heap, chunked RNG draws, cached lognormal
constants, memoised replica sets) is only admissible because it leaves the
default-config numbers untouched.  These tests pin the seed-42 single-tenant
scenario against values captured from the seed commit (9c3fd43) via a
git-worktree run, and assert the chunked-draw invariant the optimisations
rest on: on a single-consumer generator, one chunked draw is bitwise-equal
to the same draws made sequentially.

Every comparison here is exact (``==``, not ``pytest.approx``): the contract
is bit-identity, not statistical closeness.  If an intentional
behaviour-changing feature breaks these numbers, it must use a new RNG
stream name instead (see PERFORMANCE.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runner import Simulation, SimulationConfig
from repro.simulation.randomness import (
    LognormalSampler,
    RandomStreams,
    lognormal_from_mean_cv,
)
from repro.workload.distributions import ZipfianKeys
from repro.workload.operations import RecordSizer

SEED = 42

#: Captured from the seed commit (9c3fd43): seed-42 default config truncated
#: to 120 simulated seconds.  Exact float equality is intentional.
SHORT_RUN_PINS = {
    "operations_issued": 12114.0,
    "operations_completed": 12113.0,
    "read_p95_ms": 8.319096285262617,
    "write_p95_ms": 8.22557349998032,
    "stale_reads": 0.0,
}
SHORT_RUN_P95_WINDOW = 0.0014366597009349388
SHORT_RUN_EVENTS = 77833

#: Captured from the seed commit (9c3fd43): seed-42 default config, full
#: default duration (1800 s), ``SimulationReport.headline()``.
HEADLINE_PINS = {
    "read_p95_ms": 8.279911380145677,
    "write_p95_ms": 7.999701575042194,
    "failure_fraction": 0.0,
    "window_p95_s": 0.0013874363235117926,
    "stale_fraction": 0.0,
    "sla_violation_fraction": 0.0,
    "node_hours": 1.5,
    "total_cost": 0.7515544258333333,
}


# ----------------------------------------------------------------------
# Pinned default-config runs
# ----------------------------------------------------------------------
def test_short_default_run_matches_seed_commit():
    report = Simulation(SimulationConfig(seed=SEED, duration=120.0)).run()
    workload = report.workload_summary
    for name, pinned in SHORT_RUN_PINS.items():
        assert workload[name] == pinned, name
    assert report.ground_truth_window["p95_window"] == SHORT_RUN_P95_WINDOW
    assert report.events_processed == SHORT_RUN_EVENTS


@pytest.mark.slow
def test_default_headline_matches_seed_commit():
    report = Simulation(SimulationConfig(seed=SEED)).run()
    assert report.headline() == HEADLINE_PINS


# ----------------------------------------------------------------------
# Chunked draws == sequential draws (the invariant that keeps numbers frozen)
# ----------------------------------------------------------------------
def _stream_pair(name: str = "prop"):
    """Two independent copies of the same named stream."""
    return RandomStreams(SEED).stream(name), RandomStreams(SEED).stream(name)


@pytest.mark.parametrize("count", [1, 7, 1000])
def test_chunked_generator_draws_equal_sequential(count):
    sequential, chunked = _stream_pair()
    assert [sequential.random() for _ in range(count)] == chunked.random(count).tolist()

    sequential, chunked = _stream_pair()
    assert [
        sequential.exponential(0.25) for _ in range(count)
    ] == chunked.exponential(0.25, size=count).tolist()

    sequential, chunked = _stream_pair()
    assert [
        int(sequential.integers(0, 12345)) for _ in range(count)
    ] == chunked.integers(0, 12345, size=count).tolist()

    sequential, chunked = _stream_pair()
    assert [
        sequential.lognormal(-6.0, 0.35) for _ in range(count)
    ] == chunked.lognormal(-6.0, 0.35, size=count).tolist()


def _grown_keys() -> ZipfianKeys:
    distribution = ZipfianKeys(1000)
    distribution.grow(4321)
    return distribution


@pytest.mark.parametrize(
    "make_distribution",
    [
        lambda: ZipfianKeys(10_000, theta=0.99),
        lambda: ZipfianKeys(517, theta=0.5),
        lambda: ZipfianKeys(10_000, theta=0.2),
        lambda: ZipfianKeys(1),
        lambda: ZipfianKeys(2),
        _grown_keys,
    ],
    ids=[
        "zipfian",
        "zipfian-theta-0.5",
        "zipfian-theta-0.2",
        "zipfian-one-record",
        "zipfian-two-records",
        "zipfian-grown",
    ],
)
def test_chunked_key_indices_equal_sequential(make_distribution):
    sequential, chunked = _stream_pair()
    reference = make_distribution()
    subject = make_distribution()
    expected = [reference.next_index(sequential) for _ in range(4000)]
    assert subject.next_indices(chunked, 4000).tolist() == expected


def test_chunked_record_sizes_equal_sequential():
    sequential, chunked = _stream_pair()
    expected = [RecordSizer().next_size(sequential) for _ in range(4000)]
    drawn = RecordSizer().next_sizes(chunked, 4000)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == expected


def test_lognormal_sampler_matches_per_call_function():
    sequential, subject = _stream_pair()
    sampler = LognormalSampler(0.35)
    expected = [lognormal_from_mean_cv(sequential, 0.0005, 0.35) for _ in range(2000)]
    assert [sampler.sample(subject, 0.0005) for _ in range(2000)] == expected

    sequential, subject = _stream_pair()
    expected = [lognormal_from_mean_cv(sequential, 0.002, 0.35) for _ in range(2000)]
    assert LognormalSampler(0.35).sample_many(subject, 0.002, 2000).tolist() == expected

    # Degenerate parameterisations keep the seed behaviour too.
    rng = RandomStreams(SEED).stream("degenerate")
    assert LognormalSampler(0.0).sample(rng, 3.0) == 3.0
    assert LognormalSampler(0.5).sample(rng, 0.0) == 0.0
    assert LognormalSampler(0.5).sample_many(rng, 0.0, 4).tolist() == [0.0] * 4


def test_chunked_draws_across_means_reuse_cached_constants():
    # Alternating means exercises the sampler's mu memo; draws must still
    # match the uncached per-call path exactly.
    sequential, subject = _stream_pair()
    sampler = LognormalSampler(0.3)
    means = [0.00125, 0.0015, 0.00125, 0.002, 0.0015] * 200
    expected = [lognormal_from_mean_cv(sequential, mean, 0.3) for mean in means]
    assert [sampler.sample(subject, mean) for mean in means] == expected
