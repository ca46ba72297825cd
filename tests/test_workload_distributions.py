"""Unit tests for key distributions and operation mixes."""

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
    HotspotKeys,
    LatestKeys,
    OperationMix,
    RecordSizer,
    UniformKeys,
    ZipfianKeys,
    make_distribution,
)
from repro.workload.distributions import HOT_OPERATION_FRACTION


def rng():
    return np.random.default_rng(7)


def test_uniform_keys_cover_the_space():
    distribution = UniformKeys(100)
    generator = rng()
    indexes = {distribution.next_index(generator) for _ in range(2000)}
    assert min(indexes) >= 0
    assert max(indexes) <= 99
    assert len(indexes) > 80


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


def test_zipfian_scrambling_spreads_hot_keys():
    scrambled = ZipfianKeys(1000, scrambled=True)
    unscrambled = ZipfianKeys(1000, scrambled=False)
    generator = rng()
    hot_unscrambled = [unscrambled.next_index(generator) for _ in range(1000)]
    # Without scrambling the most common index is 0 (rank order).
    assert min(hot_unscrambled) == 0
    generator2 = rng()
    hot_scrambled = [scrambled.next_index(generator2) for _ in range(1000)]
    assert len(set(hot_scrambled)) > len(set(hot_unscrambled)) / 2


def test_latest_keys_prefer_recent_records():
    distribution = LatestKeys(1000)
    generator = rng()
    draws = [distribution.next_index(generator) for _ in range(5000)]
    assert np.mean(draws) > 800


def test_latest_keys_follow_growth():
    distribution = LatestKeys(100)
    distribution.grow(200)
    generator = rng()
    draws = [distribution.next_index(generator) for _ in range(2000)]
    assert max(draws) > 150


def test_hotspot_fraction_of_traffic():
    distribution = HotspotKeys(1000)
    generator = rng()
    hot_hits = sum(
        1 for _ in range(5000) if distribution.next_index(generator) < distribution.hot_set_size
    )
    assert hot_hits / 5000 == pytest.approx(HOT_OPERATION_FRACTION, abs=0.03)


def test_distribution_validation():
    with pytest.raises(ValueError):
        UniformKeys(0)
    with pytest.raises(ValueError):
        ZipfianKeys(100, theta=1.5)


def test_factory_builds_all_kinds():
    for name, cls in (
        ("uniform", UniformKeys),
        ("zipfian", ZipfianKeys),
        ("latest", LatestKeys),
        ("hotspot", HotspotKeys),
    ):
        assert isinstance(make_distribution(name, 100), cls)
    with pytest.raises(ValueError):
        make_distribution("unknown", 100)


def test_key_rendering():
    distribution = UniformKeys(10)
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
