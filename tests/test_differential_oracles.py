"""Differential oracles for representations and fast paths that replaced code.

Each test drives the code that now runs against the code it replaced (kept
here as the reference) on seeded random inputs and requires identical
results — not close ones:

* ``VersionStamp`` is a ``NamedTuple``; it must behave as the plain tuple of
  its two fields under every operation the request path uses.
* ``VersionHistory.add`` appends or bisects; the reference appends and
  stable-sorts the whole history.
* ``InconsistencyWindowTracker._remember_apply`` drops the oldest entry in
  place; the reference rebuilds the list by comprehension.
* ``StorageEngine.apply`` takes a first-version branch and otherwise
  compares the two stamps once; the reference is the general path through
  ``compare_versions``.
* ``Cluster.preload`` resolves the live replicas' storages once per distinct
  preference list; the reference looks every replica up for every record.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cluster import Cluster, ClusterConfig, StorageEngine, VersionStamp, VersionedValue
from repro.cluster.versioning import VersionHistory, compare_versions
from repro.consistency.window_tracker import (
    InconsistencyWindowTracker,
    WindowTrackerConfig,
)
from repro.simulation import Simulator

SEEDS = (1, 2, 3, 4, 5)


# ----------------------------------------------------------------------
# VersionStamp against the plain tuple of its fields
# ----------------------------------------------------------------------
_TIMESTAMPS = (0.0, -0.0, 1.5, 1.5, 2.0, -3.25, math.inf, -math.inf, 1e-300, 7.0)


def _field_pairs(rng: random.Random, count: int):
    pairs = [
        (rng.choice(_TIMESTAMPS), rng.randrange(-3, 4)) for _ in range(count)
    ]
    pairs += [(rng.uniform(-10.0, 10.0), rng.randrange(1 << 40)) for _ in range(count)]
    pairs += pairs[: count // 2]  # equal pairs
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("seed", SEEDS)
def test_version_stamp_agrees_with_the_tuple_of_its_fields(seed):
    rng = random.Random(seed)
    pairs = _field_pairs(rng, 40)
    stamps = [VersionStamp(timestamp, sequence) for timestamp, sequence in pairs]
    for stamp, pair in zip(stamps, pairs):
        assert VersionStamp(timestamp=pair[0], sequence=pair[1]) == stamp
        assert (stamp.timestamp, stamp.sequence) == pair
        assert hash(stamp) == hash(pair)
        assert repr(stamp) == f"VersionStamp(timestamp={pair[0]!r}, sequence={pair[1]!r})"
        assert str(stamp) == f"{pair[0]:.6f}#{pair[1]}"
    for a, pa in zip(stamps, pairs):
        for b, pb in zip(stamps, pairs):
            assert (a < b) == (pa < pb)
            assert (a <= b) == (pa <= pb)
            assert (a > b) == (pa > pb)
            assert (a >= b) == (pa >= pb)
            assert (a == b) == (pa == pb)
            assert (a != b) == (pa != pb)
    assert [tuple(stamp) for stamp in sorted(stamps)] == sorted(pairs)
    assert max(stamps) == max(pairs) and min(stamps) == min(pairs)
    assert {stamp: index for index, stamp in enumerate(stamps)} == {
        pair: index for index, pair in enumerate(pairs)
    }
    assert {tuple(stamp) for stamp in set(stamps)} == set(pairs)


# ----------------------------------------------------------------------
# VersionHistory.add against append-and-stable-sort
# ----------------------------------------------------------------------
def _reference_add(versions, version, max_entries):
    versions.append(version)
    versions.sort(key=lambda v: v.stamp)
    if len(versions) > max_entries:
        del versions[0 : len(versions) - max_entries]


@pytest.mark.parametrize("max_entries", (1, 3, 8))
@pytest.mark.parametrize("seed", SEEDS)
def test_version_history_agrees_with_append_and_stable_sort(seed, max_entries):
    rng = random.Random(seed)
    history = VersionHistory(max_entries)
    reference = []
    clock = 0.0
    for write_id in range(400):
        move = rng.random()
        if move < 0.5:  # in order
            clock += rng.choice((0.0, 0.5, 1.0))
            timestamp = clock
        elif move < 0.8:  # out of order
            timestamp = rng.uniform(0.0, clock + 1.0)
        else:  # duplicate of a retained stamp; write_id tells the copies apart
            timestamp = rng.choice(reference).stamp.timestamp if reference else clock
        version = VersionedValue(
            VersionStamp(timestamp, rng.randrange(3)), b"v", write_id, size=1
        )
        history.add(version)
        _reference_add(reference, version, max_entries)

        assert len(history) == len(reference) <= max_entries
        assert all(a is b for a, b in zip(history.versions(), reference))
        assert history.newest is reference[-1]
        probe = VersionStamp(rng.uniform(0.0, clock + 1.0), 0)
        assert history.age_of(probe) == max(
            0.0, reference[-1].stamp.timestamp - probe.timestamp
        )


# ----------------------------------------------------------------------
# StorageEngine.apply against the general path through compare_versions
# ----------------------------------------------------------------------
class _ReferenceEngine(StorageEngine):
    def apply(self, key, version):
        current = self._data.get(key)
        history = self._history.get(key)
        if history is None:
            history = VersionHistory(self._history_depth)
            self._history[key] = history
        history.add(version)
        if compare_versions(version, current) <= 0 and current is not None:
            self.stats.writes_superseded += 1
            return False
        if current is not None:
            self.stats.bytes_stored -= current.size
            if current.is_tombstone:
                self.stats.tombstones -= 1
        else:
            self.stats.keys += 1
        self._data[key] = version
        self.stats.bytes_stored += version.size
        self.stats.writes_applied += 1
        if version.is_tombstone:
            self.stats.tombstones += 1
        return True


def _engine_state(engine):
    return (
        list(engine._data.items()),
        [(key, history.versions()) for key, history in engine._history.items()],
        engine.stats,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_storage_apply_agrees_with_the_general_path(seed):
    rng = random.Random(seed)
    engine, reference = StorageEngine("fast"), _ReferenceEngine("reference")
    keys = [f"k{index}" for index in range(12)]
    most_tombstones = 0
    for write_id in range(1500):
        key = rng.choice(keys)
        if rng.random() < 0.05:
            engine.remove(key)
            reference.remove(key)
        else:
            version = VersionedValue(
                VersionStamp(float(rng.randrange(40)), rng.randrange(3)),
                None if rng.random() < 0.2 else b"v",
                write_id,
                size=rng.randrange(100),
            )
            assert engine.apply(key, version) is reference.apply(key, version)
        assert _engine_state(engine) == _engine_state(reference)
        most_tombstones = max(most_tombstones, reference.stats.tombstones)
    assert reference.stats.writes_superseded > 100 and most_tombstones > 1


# ----------------------------------------------------------------------
# _remember_apply against the comprehension it replaces
# ----------------------------------------------------------------------
def _reference_remember(recent, now, retention, key, stamp, node_id, time):
    entries = recent.setdefault(key, [])
    entries.append((stamp, node_id, time))
    cutoff = now - retention
    if len(entries) > 32:
        recent[key] = [entry for entry in entries if entry[2] >= cutoff][-32:]


@pytest.mark.parametrize("in_order", (True, False))
@pytest.mark.parametrize("seed", SEEDS)
def test_remember_apply_agrees_with_the_rebuilt_list(seed, in_order):
    rng = random.Random(seed)
    retention = 50.0
    simulator = Simulator(seed=seed)
    tracker = InconsistencyWindowTracker(
        simulator,
        # No expiry scan inside the horizon: only _remember_apply touches the buffer.
        WindowTrackerConfig(early_apply_retention=retention, expiry_scan_interval=1e9),
    )
    reference = {}
    keys = ("k0", "k1", "k2")
    # Mostly bursts, which fill a key's buffer with fresh entries; the rare
    # long pauses let one, several or all of them age out.
    pauses, weights = (0.0, 0.05, 0.4, 3.0, 20.0, 70.0), (500, 300, 150, 40, 7, 3)
    pushed_out = aged_out = 0
    for sequence in range(3000):
        simulator.run_until(simulator.now + rng.choices(pauses, weights)[0])
        now = simulator.now
        time = now if in_order else now - rng.choice((0.0, 0.0, 1.0, 30.0, 60.0))
        key = rng.choice(keys)
        stamp = VersionStamp(time, sequence)
        node_id = f"node-{rng.randrange(3)}"
        before = len(reference.get(key, ()))
        tracker._remember_apply(key, stamp, node_id, time)
        _reference_remember(reference, now, retention, key, stamp, node_id, time)
        assert tracker._recent_applies == reference
        if len(reference[key]) == before == 32:
            pushed_out += 1
        elif len(reference[key]) <= before:
            aged_out += 1
    assert pushed_out > 100 and aged_out > 5
    assert bool(tracker._out_of_order) is not in_order


# ----------------------------------------------------------------------
# Cluster.preload against apply-per-record-and-replica
# ----------------------------------------------------------------------
def _reference_preload(cluster, items, sizes):
    now = cluster._simulator.now
    for key, value in items.items():
        stamp = VersionStamp(timestamp=now, sequence=cluster.coordinator.next_sequence())
        size = sizes.get(key, cluster.config.coordinator.default_value_size)
        version = VersionedValue(stamp=stamp, value=value, write_id=0, size=size)
        replicas = cluster.ring.preference_list(key, cluster.replication_factor)
        if not replicas:
            continue
        for node_id in replicas:
            node = cluster.nodes.get(node_id)
            if node is not None and node.is_up:
                node.storage.apply(key, version)
        cluster.coordinator.acked_registry.record_ack(key, stamp, now)
        cluster._known_keys[key] = None
    cluster._known_keys_dirty = True


def _loaded_state(cluster):
    return {
        "storage": {
            node_id: _engine_state(node.storage) for node_id, node in cluster.nodes.items()
        },
        "acked": cluster.coordinator.acked_registry._acked,
        "known_keys": list(cluster._known_keys),
        "sampled_keys": cluster._sample_all_keys(),
        "sequence": cluster.coordinator.next_sequence(),
    }


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_preload_agrees_with_apply_per_record_and_replica(seed):
    rng = random.Random(seed)
    clusters = []
    for _ in range(2):
        cluster = Cluster(
            Simulator(seed=seed), ClusterConfig(initial_nodes=5, replication_factor=3)
        )
        cluster.crash_node("node-2")  # a replica that must be skipped
        clusters.append(cluster)
    fast, reference = clusters

    first = {f"user{index}": bytes(rng.randrange(1, 9)) for index in range(300)}
    first["gone"] = None  # a tombstone
    sizes = {key: rng.randrange(1, 4096) for key in first if rng.random() < 0.7}
    # A second load over the first: rewrites and new keys, in shuffled order.
    second_keys = rng.sample(sorted(first), 120) + [f"late{index}" for index in range(40)]
    rng.shuffle(second_keys)
    second = {key: b"second" for key in second_keys}

    for items, item_sizes in ((first, sizes), (second, None)):
        assert fast.preload(items, item_sizes) == len(items)
        _reference_preload(reference, items, item_sizes or {})
        assert _loaded_state(fast) == _loaded_state(reference)
