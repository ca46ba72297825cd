"""Unit tests for the key distribution and operation mixes."""

from __future__ import annotations

import numpy as np
import pytest

import repro.workload.operations as operations
from repro.cluster import ConfigurationError
from repro.workload import (
    BALANCED,
    READ_HEAVY,
    READ_ONLY,
    WRITE_HEAVY,
    OperationMix,
    RecordSizer,
    ZipfianKeys,
)


def rng():
    return np.random.default_rng(7)


def test_zipfian_is_skewed_towards_few_keys():
    distribution = ZipfianKeys(1000, theta=0.99)
    generator = rng()
    counts = np.zeros(1000, dtype=int)
    for _ in range(20_000):
        counts[distribution.next_index(generator)] += 1
    sorted_counts = np.sort(counts)[::-1]
    top_10_share = sorted_counts[:10].sum() / counts.sum()
    assert top_10_share > 0.15
    # But all draws stay in range.
    assert counts.sum() == 20_000


def test_zipfian_hottest_key_draws_one_over_zeta_of_the_traffic():
    distribution = ZipfianKeys(1000, theta=0.99)
    generator = rng()
    counts = np.bincount(
        [distribution.next_index(generator) for _ in range(20_000)], minlength=1000
    )
    zeta = sum(1.0 / rank**0.99 for rank in range(1, 1001))
    assert counts.max() / 20_000 == pytest.approx(1.0 / zeta, abs=0.01)


def test_zipfian_scrambling_spreads_hot_keys():
    distribution = ZipfianKeys(1000)
    generator = rng()
    counts = np.bincount(
        [distribution.next_index(generator) for _ in range(20_000)], minlength=1000
    )
    hottest = np.argsort(counts)[::-1][:10]
    # Ranked without scrambling, the ten hottest records would be 0..9.
    assert set(hottest.tolist()) != set(range(10))
    assert hottest.max() - hottest.min() > 500


def test_zipfian_keys_follow_growth():
    distribution = ZipfianKeys(100)
    distribution.grow(200)
    assert distribution.record_count == 200
    generator = rng()
    draws = [distribution.next_index(generator) for _ in range(2000)]
    assert max(draws) > 150
    assert max(draws) < 200


def test_zipfian_growth_never_shrinks_the_key_space():
    distribution = ZipfianKeys(200)
    distribution.grow(50)
    assert distribution.record_count == 200
    generator = rng()
    assert max(distribution.next_index(generator) for _ in range(2000)) > 150


@pytest.mark.parametrize("record_count", [1, 2, 3])
def test_zipfian_draws_stay_inside_a_tiny_key_space(record_count):
    distribution = ZipfianKeys(record_count)
    generator = rng()
    draws = [distribution.next_index(generator) for _ in range(500)]
    draws += distribution.next_indices(generator, 500).tolist()
    assert 0 <= min(draws) and max(draws) < record_count


def test_chunked_draws_refuse_a_negative_count():
    with pytest.raises(ValueError):
        ZipfianKeys(10).next_indices(rng(), -1)
    assert ZipfianKeys(10).next_indices(rng(), 0).tolist() == []


def test_distribution_validation():
    with pytest.raises(ValueError):
        ZipfianKeys(0)
    with pytest.raises(ValueError):
        ZipfianKeys(100, theta=1.5)


def test_key_rendering():
    distribution = ZipfianKeys(10)
    assert distribution.key_for(3) == "user3"
    assert distribution.key_for(3, prefix="item") == "item3"


# ----------------------------------------------------------------------
# Operation mixes and record sizes
# ----------------------------------------------------------------------
def test_predefined_mixes_sum_to_one():
    for mix in (READ_HEAVY, BALANCED, WRITE_HEAVY, READ_ONLY):
        total = mix.read_fraction + mix.update_fraction + mix.insert_fraction
        assert total == pytest.approx(1.0)


def test_mix_choice_matches_fractions():
    generator = rng()
    mix = OperationMix(read_fraction=0.7, update_fraction=0.2, insert_fraction=0.1)
    draws = [mix.choose(generator) for _ in range(10_000)]
    assert draws.count("read") / 10_000 == pytest.approx(0.7, abs=0.02)
    assert draws.count("update") / 10_000 == pytest.approx(0.2, abs=0.02)
    assert draws.count("insert") / 10_000 == pytest.approx(0.1, abs=0.02)


def test_mix_validation():
    with pytest.raises(ValueError):
        OperationMix(read_fraction=0.5, update_fraction=0.2, insert_fraction=0.0)
    # The fractions sum to 1, but one is below its bound.
    with pytest.raises(ConfigurationError, match="^OperationMix.read_fraction must be in"):
        OperationMix(read_fraction=-0.1, update_fraction=1.1, insert_fraction=0.0)


def test_record_sizer_bounds_and_mean(monkeypatch):
    monkeypatch.setattr(operations, "MIN_RECORD_SIZE", 100)
    monkeypatch.setattr(operations, "MAX_RECORD_SIZE", 5000)
    monkeypatch.setattr(operations, "MEAN_RECORD_SIZE", 1000)
    sizer = RecordSizer()
    generator = rng()
    sizes = [sizer.next_size(generator) for _ in range(5000)]
    assert min(sizes) >= 100
    assert max(sizes) <= 5000
    assert np.mean(sizes) == pytest.approx(1000, rel=0.1)


def test_record_sizer_zero_cv_is_constant(monkeypatch):
    monkeypatch.setattr(operations, "RECORD_SIZE_CV", 0.0)
    monkeypatch.setattr(operations, "MEAN_RECORD_SIZE", 512)
    sizer = RecordSizer()
    generator = rng()
    assert {sizer.next_size(generator) for _ in range(10)} == {512}
