"""Unit tests for the PBS-style analytical staleness model."""

from __future__ import annotations

import pytest

from repro.cluster import ConsistencyLevel
from repro.consistency import StalenessModel


def test_quorum_intersection_is_never_stale():
    model = StalenessModel(mean_replication_lag=0.5)
    # R + W > N -> stale probability 0 regardless of time or lag.
    assert model.stale_probability(0.0, 3, read_acks=2, write_acks=2) == 0.0
    assert model.stale_probability(0.0, 3, read_acks=3, write_acks=1) == 0.0
    assert model.stale_probability(0.0, 5, read_acks=3, write_acks=3) == 0.0


def test_weak_levels_have_positive_stale_probability():
    model = StalenessModel(mean_replication_lag=0.5)
    p = model.stale_probability(0.0, 3, read_acks=1, write_acks=1)
    assert 0.0 < p < 1.0
    # With one replica guaranteed fresh out of three, a single-read miss
    # probability immediately after the ack is 2/3.
    assert p == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_stale_probability_decreases_with_time():
    model = StalenessModel(mean_replication_lag=0.2)
    probabilities = [
        model.stale_probability(t, 3, read_acks=1, write_acks=1) for t in (0.0, 0.1, 0.5, 2.0)
    ]
    assert probabilities == sorted(probabilities, reverse=True)
    assert probabilities[-1] < 0.05


def test_stale_probability_decreases_with_more_read_acks():
    model = StalenessModel(mean_replication_lag=0.5)
    one = model.stale_probability(0.05, 5, read_acks=1, write_acks=1)
    two = model.stale_probability(0.05, 5, read_acks=2, write_acks=1)
    three = model.stale_probability(0.05, 5, read_acks=3, write_acks=1)
    assert one > two > three


def test_stale_probability_decreases_with_more_write_acks():
    model = StalenessModel(mean_replication_lag=0.5)
    w1 = model.stale_probability(0.05, 5, read_acks=1, write_acks=1)
    w3 = model.stale_probability(0.05, 5, read_acks=1, write_acks=3)
    assert w1 > w3


def test_zero_lag_means_always_fresh():
    model = StalenessModel(mean_replication_lag=0.0)
    assert model.stale_probability(0.0, 3, 1, 1) == 0.0


def test_level_wrapper_matches_ack_counts():
    model = StalenessModel(mean_replication_lag=0.3)
    by_level = model.stale_probability_for_levels(
        0.1, 3, ConsistencyLevel.ONE, ConsistencyLevel.ONE
    )
    by_acks = model.stale_probability(0.1, 3, 1, 1)
    assert by_level == pytest.approx(by_acks)


def test_expected_window_quantile():
    model = StalenessModel(mean_replication_lag=1.0)
    median = model.expected_window_p(0.5)
    p95 = model.expected_window_p(0.95)
    assert median == pytest.approx(0.693, abs=0.01)
    assert p95 > median


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        StalenessModel(mean_replication_lag=-1.0)
    model = StalenessModel(mean_replication_lag=0.1)
    with pytest.raises(ValueError):
        model.stale_probability(0.0, 0, 1, 1)
    with pytest.raises(ValueError):
        model.expected_window_p(1.5)
    with pytest.raises(ValueError):
        model.update_lag(-0.1)


def test_update_lag_changes_predictions():
    model = StalenessModel(mean_replication_lag=0.1)
    fast = model.stale_probability(0.2, 3, 1, 1)
    model.update_lag(5.0)
    slow = model.stale_probability(0.2, 3, 1, 1)
    assert slow > fast
