"""Unit tests for the consistent-hash ring."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster import ConfigurationError, HashRing, UnknownNodeError, hash_key


def make_ring(nodes, vnodes=32):
    ring = HashRing(virtual_nodes=vnodes)
    for node in nodes:
        ring.add_node(node)
    return ring


def test_hash_key_is_deterministic_and_64bit():
    assert hash_key("abc") == hash_key("abc")
    assert hash_key("abc") != hash_key("abd")
    assert 0 <= hash_key("anything") < 2**64


def test_preference_list_size_and_uniqueness():
    ring = make_ring(["a", "b", "c", "d"])
    for key in ("k1", "k2", "k3", "user42"):
        prefs = ring.preference_list(key, 3)
        assert len(prefs) == 3
        assert len(set(prefs)) == 3


def test_preference_list_clamps_to_cluster_size():
    ring = make_ring(["a", "b"])
    assert len(ring.preference_list("k", 5)) == 2


def test_preference_list_stable_for_same_key():
    ring = make_ring(["a", "b", "c"])
    assert ring.preference_list("k", 3) == ring.preference_list("k", 3)


def test_rf_prefix_property():
    """The RF=2 preference list must be a prefix of the RF=3 list."""
    ring = make_ring(["a", "b", "c", "d", "e"])
    for i in range(50):
        key = f"key-{i}"
        two = ring.preference_list(key, 2)
        three = ring.preference_list(key, 3)
        assert three[:2] == two


def test_add_duplicate_node_rejected():
    ring = make_ring(["a"])
    with pytest.raises(ConfigurationError):
        ring.add_node("a")


def test_remove_unknown_node_rejected():
    ring = make_ring(["a"])
    with pytest.raises(UnknownNodeError):
        ring.remove_node("b")


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        HashRing(virtual_nodes=0)
    ring = make_ring(["a"])
    with pytest.raises(ConfigurationError):
        ring.preference_list("k", 0)


def test_empty_ring_returns_empty_placement():
    ring = HashRing()
    assert ring.preference_list("k", 3) == ()


def test_remove_node_excludes_it_from_placement():
    ring = make_ring(["a", "b", "c", "d"])
    ring.remove_node("c")
    assert "c" not in ring
    for i in range(100):
        assert "c" not in ring.preference_list(f"key-{i}", 3)


def test_adding_node_moves_limited_fraction_of_keys():
    before = make_ring(["a", "b", "c", "d"], vnodes=64)
    after = before.copy()
    after.add_node("e")
    keys = [f"__ring_sample_{i}" for i in range(1000)]
    moved = sum(before.preference_list(k, 1) != after.preference_list(k, 1) for k in keys) / 1000
    # Consistent hashing: roughly 1/5 of the keys move, never the majority.
    assert moved < 0.45
    assert moved > 0.02


def test_ownership_is_reasonably_balanced():
    ring = make_ring(["a", "b", "c", "d"], vnodes=128)
    primaries = Counter(ring.preference_list(f"key-{i}", 1)[0] for i in range(4096))
    assert set(primaries) == {"a", "b", "c", "d"}
    for count in primaries.values():
        assert 0.10 < count / 4096 < 0.45


def test_copy_is_independent():
    ring = make_ring(["a", "b"])
    clone = ring.copy()
    clone.add_node("c")
    assert "c" in clone
    assert "c" not in ring


def test_contains_and_size():
    ring = make_ring(["a", "b"])
    assert "a" in ring and "b" in ring
    assert "z" not in ring
    assert ring.size == 2
