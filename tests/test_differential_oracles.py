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
* ``NodeRttTracker`` keeps one ranking per generation and the four stages that
  rank by RTT filter it; the references re-rank the nodes they are handed
  from the estimates on every call, as those stages did.  Trackers whose
  ``observe`` or ``forget`` keeps a stale ranking, or whose fallback is cached,
  must be caught.
* ``TimeSeries`` keeps two ``float64`` columns; the reference is the pair of
  Python lists it kept before, verbatim.  A ``window`` that bisects to the
  right and an ``integrate`` that sums in numpy's order must be caught.
"""

from __future__ import annotations

import bisect
import math
import random

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, StorageEngine, VersionStamp, VersionedValue
from repro.cluster.versioning import VersionHistory, compare_versions
from repro.consistency.window_tracker import (
    InconsistencyWindowTracker,
    WindowTrackerConfig,
)
from repro.middleware import (
    LatencyAwareReplicaSelection,
    NodeRttTracker,
    RequestHedging,
    RttAwareWriteRouting,
)
from repro.simulation import Simulator, TimeSeries
from repro.simulation.timeseries import _EMPTY_SUMMARY, SeriesSummary

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


# ----------------------------------------------------------------------
# The tracker's per-generation ranking against ranking afresh on every call
# ----------------------------------------------------------------------
class _ReferenceEstimates:
    """``estimate``/``estimate_or_none`` as the stages used to call them:
    straight from the estimates and the fallback, nothing cached."""

    def __init__(self, tracker, fallback):
        self._estimates = tracker._estimates
        self._fallback = fallback

    def estimate(self, node_id):
        estimate = self._estimates.get(node_id)
        if estimate is not None:
            return estimate
        if self._fallback is not None:
            return float(self._fallback())
        return 0.0

    def estimate_or_none(self, node_id):
        estimate = self._estimates.get(node_id)
        if estimate is not None:
            return estimate
        if self._fallback is not None:
            return float(self._fallback())
        return None


def _reference_select_read_targets(self, ctx, live, required):
    if len(live) <= required:
        return None
    self.selections += 1
    estimate_or_none = self._tracker.estimate_or_none
    known, unknown = [], []
    for node_id in live:
        (unknown if estimate_or_none(node_id) is None else known).append(node_id)
    if not known:
        pool = sorted(live)
        start = self._rotation % len(pool)
        self._rotation += 1
        return [pool[(start + i) % len(pool)] for i in range(required)]
    estimate = self._tracker.estimate
    ranked = sorted(known, key=lambda node_id: (estimate(node_id), node_id))
    cutoff = estimate(ranked[0]) * (1.0 + self._badness_threshold)
    healthy = len(ranked)
    while healthy > 1 and estimate(ranked[healthy - 1]) > cutoff:
        healthy -= 1
    if healthy < len(ranked):
        self.avoidances += 1
        self._since_explore += 1
        if self._since_explore >= self._explore_every:
            self._since_explore = 0
            self.explorations += 1
            rest = [n for n in ranked[:-1]] + sorted(unknown)
            return [ranked[-1]] + rest[: required - 1]
    pool = ranked[:healthy] + sorted(unknown)
    if len(pool) <= required:
        return (pool + ranked[healthy:])[:required]
    start = self._rotation % len(pool)
    self._rotation += 1
    return [pool[(start + i) % len(pool)] for i in range(required)]


def _reference_rank(self, node_id):
    estimate = self._tracker.estimate_or_none(node_id)
    if estimate is None:
        return (1, 0.0, node_id)
    return (0, estimate, node_id)


def _reference_order_write_targets(self, ctx, live):
    ordered = sorted(live, key=lambda node_id: _reference_rank(self, node_id))
    self.writes_ordered += 1
    return ordered


def _reference_preferred_coordinator(self, serving):
    if len(serving) <= 1:
        return None
    estimate_or_none = self._tracker.estimate_or_none
    known, unknown = [], []
    for node_id in serving:
        (unknown if estimate_or_none(node_id) is None else known).append(node_id)
    if not known:
        return None
    estimate = self._tracker.estimate
    ranked = sorted(known, key=lambda node_id: (estimate(node_id), node_id))
    cutoff = estimate(ranked[0]) * (1.0 + self._badness_threshold)
    healthy = len(ranked)
    while healthy > 1 and estimate(ranked[healthy - 1]) > cutoff:
        healthy -= 1
    pool = ranked[:healthy] + sorted(unknown)
    if len(pool) == len(serving):
        return None
    self.coordinators_preferred += 1
    choice = pool[self._rotation % len(pool)]
    self._rotation += 1
    return choice


def _reference_hedge_candidates(self, live, targets):
    """The ranking half of the old ``hedge_read`` (its budget half is as it was)."""
    targeted = set(targets)
    spares = [node_id for node_id in live if node_id not in targeted]
    if not spares:
        return None
    spares.sort(key=lambda node_id: _reference_rank(self, node_id))
    return spares


_RANKING_COUNTERS = (
    "selections",
    "avoidances",
    "explorations",
    "_rotation",
    "_since_explore",
    "writes_ordered",
    "coordinators_preferred",
    "hedges_armed",
)
_UNIVERSE = tuple(f"node-{index}" for index in range(9))
# Few distinct values, so equal estimates (node-id ties) are common; spread
# wide enough that some nodes fall beyond any badness cutoff.
_RTTS = (0.002, 0.002, 0.003, 0.004, 0.010, 0.050, 0.200)


def _handed_nodes(rng, tracked):
    """1-6 distinct nodes: a subset or a superset of the tracked set, disjoint
    from it, or any mix."""
    tracked = sorted(tracked)
    untracked = [node_id for node_id in _UNIVERSE if node_id not in tracked]
    shape = rng.choice(("subset", "superset", "disjoint", "mixed"))
    if shape == "superset" and len(tracked) < 6:
        return tracked + rng.sample(untracked, rng.randrange(1, 7 - len(tracked)))
    pool = {"subset": tracked, "disjoint": untracked}.get(shape) or list(_UNIVERSE)
    return rng.sample(pool, min(rng.randrange(1, 7), len(pool)))


def _counters(stages):
    return [
        (name, getattr(stage, name))
        for stage in stages
        for name in _RANKING_COUNTERS
        if hasattr(stage, name)
    ]


def _drive_ranking_oracle(seed, with_fallback, tracker_type=NodeRttTracker, steps=600):
    rng = random.Random(seed)
    congestion = [0.004]
    fallback = (lambda: congestion[0]) if with_fallback else None
    tracker = tracker_type(alpha=rng.choice((0.3, 1.0)), fallback=fallback)
    threshold = rng.choice((0.0, 0.5, 2.0))
    explore_every = rng.randrange(2, 6)

    def stages(estimates):
        return (
            LatencyAwareReplicaSelection(
                estimates, badness_threshold=threshold, explore_every=explore_every
            ),
            RttAwareWriteRouting(estimates, badness_threshold=threshold),
            RequestHedging(estimates, operation_timeout=1.0),
        )

    new = selection, routing, hedging = stages(tracker)
    old = old_selection, old_routing, old_hedging = stages(
        _ReferenceEstimates(tracker, fallback)
    )
    calls = 0
    for _ in range(steps):
        action = rng.random()
        tracked = tracker.snapshot()
        if action < 0.25:
            tracker.observe(rng.choice(_UNIVERSE[:7]), rng.choice(_RTTS))
            continue
        if action < 0.32:
            # Sampled or not: forgetting an unknown node is legal.
            tracker.forget(rng.choice(_UNIVERSE))
            continue
        if action < 0.42:
            congestion[0] = rng.choice((0.001, 0.003, 0.004, 0.020, 0.300))
            continue
        nodes = _handed_nodes(rng, tracked)
        if action < 0.62:
            required = rng.randrange(1, 4)
            answer = selection.select_read_targets(None, nodes, required)
            expected = _reference_select_read_targets(old_selection, None, nodes, required)
        elif action < 0.77:
            answer = routing.preferred_coordinator(nodes)
            expected = _reference_preferred_coordinator(old_routing, nodes)
        elif action < 0.87:
            answer = routing.order_write_targets(None, nodes)
            expected = _reference_order_write_targets(old_routing, None, nodes)
        else:
            targets = rng.sample(nodes, rng.randrange(0, len(nodes) + 1))
            if rng.random() < 0.2:
                targets.append("node-elsewhere")
            plan = hedging.hedge_read(None, nodes, targets)
            answer = plan if plan is None else plan[1]
            expected = _reference_hedge_candidates(old_hedging, nodes, targets)
            if expected is not None:
                old_hedging.hedges_armed += 1
            assert plan is None or plan[0] == hedging.static_budget
        assert answer == expected, (seed, nodes, tracked)
        assert _counters(new) == _counters(old)
        calls += 1
    assert calls > steps // 2
    return selection, routing


def test_generation_ranking_agrees_with_ranking_afresh():
    explorations = preferred = rotations = 0
    for seed in range(1, 13):
        for with_fallback in (False, True):
            selection, routing = _drive_ranking_oracle(seed, with_fallback)
            explorations += selection.explorations
            preferred += routing.coordinators_preferred
            rotations += selection._rotation
    # The runs must have exercised what they claim to: avoidance with the
    # exploration period crossed many times, coordinator preference, rotation.
    assert explorations > 50 and preferred > 50 and rotations > 200


class _ObserveKeepsRanking(NodeRttTracker):
    __slots__ = ()

    def observe(self, node_id, rtt):
        ranking = self._ranking
        super().observe(node_id, rtt)
        self._ranking = ranking


class _ForgetKeepsRanking(NodeRttTracker):
    __slots__ = ()

    def forget(self, node_id):
        ranking = self._ranking
        super().forget(node_id)
        self._ranking = ranking


class _CachesFallback(NodeRttTracker):
    __slots__ = ()

    def __init__(self, alpha, fallback):
        value = []

        def first_value():
            if not value:
                value.append(fallback())
            return value[0]

        super().__init__(alpha, first_value)


@pytest.mark.parametrize(
    "mutant", (_ObserveKeepsRanking, _ForgetKeepsRanking, _CachesFallback)
)
def test_ranking_oracle_catches_a_stale_ranking_and_a_cached_fallback(mutant):
    caught = 0
    for seed in range(1, 13):
        try:
            _drive_ranking_oracle(seed, with_fallback=True, tracker_type=mutant)
        except AssertionError:
            caught += 1
    assert caught == 12


# ----------------------------------------------------------------------
# TimeSeries against the two Python lists it replaced
# ----------------------------------------------------------------------
class _ListTimeSeries:
    """The list-backed ``TimeSeries`` as it stood before the columns."""

    def __init__(self, name):
        self.name = name
        self._times = []
        self._values = []

    def __len__(self):
        return len(self._times)

    def __bool__(self):
        return bool(self._times)

    def record(self, time, value):
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"samples must be appended in time order "
                f"({time} < {self._times[-1]}) in series {self.name!r}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    @property
    def times(self):
        return self._times

    @property
    def values(self):
        return self._values

    def last(self, default=0.0):
        return self._values[-1] if self._values else default

    def window(self, start, end):
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        out = _ListTimeSeries(self.name)
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def values_since(self, start):
        lo = bisect.bisect_left(self._times, start)
        return self._values[lo:]

    def summary(self):
        if not self._values:
            return _EMPTY_SUMMARY
        arr = np.asarray(self._values, dtype=float)
        return SeriesSummary(
            count=int(arr.size),
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
        )

    def percentile(self, q):
        if not self._values:
            return 0.0
        return float(np.percentile(np.asarray(self._values, dtype=float), q))

    def mean(self):
        if not self._values:
            return 0.0
        return float(np.mean(self._values))

    def integrate(self):
        if len(self._times) < 2:
            return 0.0
        total = 0.0
        for i in range(len(self._times) - 1):
            dt = self._times[i + 1] - self._times[i]
            total += self._values[i] * dt
        return total

    def time_weighted_mean(self, end_time=None):
        if not self._times:
            return 0.0
        end = end_time if end_time is not None else self._times[-1]
        if len(self._times) == 1 or end <= self._times[0]:
            return self._values[0]
        total = 0.0
        for i in range(len(self._times) - 1):
            dt = min(self._times[i + 1], end) - self._times[i]
            if dt > 0:
                total += self._values[i] * dt
        if end > self._times[-1]:
            total += self._values[-1] * (end - self._times[-1])
        duration = end - self._times[0]
        return total / duration if duration > 0 else self._values[-1]

    def resample(self, interval, end_time=None):
        out = _ListTimeSeries(self.name)
        if not self._times:
            return out
        end = end_time if end_time is not None else self._times[-1]
        t = self._times[0]
        idx = 0
        while t <= end + 1e-12:
            while idx + 1 < len(self._times) and self._times[idx + 1] <= t:
                idx += 1
            out.record(t, self._values[idx])
            t += interval
        return out


def _same_number(ours, theirs):
    """Bit-identical and a plain ``float``/``int``, as the lists gave."""
    assert type(ours) is type(theirs), (ours, theirs)
    assert ours == theirs


def _same_samples(ours, theirs):
    assert len(ours) == len(theirs) and bool(ours) == bool(theirs)
    assert ours.times.dtype == ours.values.dtype == np.float64
    assert ours.times.tolist() == theirs.times
    assert ours.values.tolist() == theirs.values


def _query_bounds(rng, times):
    """Bounds on, between, before and after the sample times."""
    bounds = [-1.0, 0.0, 1e9]
    if times:
        first, last = times[0], times[-1]
        picked = rng.sample(times, min(4, len(times)))
        bounds += [first, last, first - 0.25, last + 0.25, (first + last) / 2.0]
        bounds += picked + [time + 1e-9 for time in picked]
    return bounds


def _compare_series(rng, ours, theirs):
    _same_samples(ours, theirs)
    _same_number(ours.last(), theirs.last())
    _same_number(ours.last(default=7.5), theirs.last(default=7.5))
    for q in (0, 50, 95, 99, 100):
        _same_number(ours.percentile(q), theirs.percentile(q))
    _same_number(ours.mean(), theirs.mean())
    assert ours.summary() == theirs.summary()
    _same_number(ours.integrate(), theirs.integrate())
    _same_number(ours.time_weighted_mean(), theirs.time_weighted_mean())
    bounds = _query_bounds(rng, theirs.times)
    for bound in bounds:
        assert ours.values_since(bound).tolist() == theirs.values_since(bound)
        _same_number(ours.time_weighted_mean(bound), theirs.time_weighted_mean(bound))
    for start in bounds:
        for end in bounds:
            window = ours.window(start, end)
            _same_samples(window, theirs.window(start, end))
            assert window.name == ours.name
            assert not np.shares_memory(window.values, ours.values)
            assert not np.shares_memory(window.times, ours.times)
    if theirs.times:
        span = theirs.times[-1] - theirs.times[0]
        for interval, end in ((max(span, 1.0) / 7.0, None), (0.5, theirs.times[0] + 3.0)):
            _same_samples(ours.resample(interval, end), theirs.resample(interval, end))
    else:
        _same_samples(ours.resample(1.0), theirs.resample(1.0))


def _drive_series_oracle(seed, series_type=TimeSeries, samples=150):
    rng = random.Random(seed)
    ours, theirs = series_type("oracle"), _ListTimeSeries("oracle")
    # Empty, one sample, either side of the first growth and of later ones.
    checkpoints = {0, 1, 2, 15, 16, 17, 32, 33, 65, samples}
    time = rng.choice((0, 0.0, 2.5))
    for count in range(samples + 1):
        if count in checkpoints:
            _compare_series(rng, ours, theirs)
            # A window is a series of its own: recording into it leaves the
            # source alone.
            window = ours.window(-1.0, 1e9)
            window.record(2e9, -1.0)
            _same_samples(ours, theirs)
        if count and rng.random() < 0.1:
            late = rng.choice((time - 1, time - 0.5, np.float64(time - 1e-9)))
            messages = []
            for series in (ours, theirs):
                with pytest.raises(ValueError) as error:
                    series.record(late, 1.0)
                messages.append(str(error.value))
            assert messages[0] == messages[1]
            _same_samples(ours, theirs)
        # Equal consecutive times, integer and numpy inputs among the floats.
        time += rng.choice((0, 0.0, 1, rng.random(), np.float64(rng.random() * 3.0)))
        value = rng.choice(
            (rng.randrange(-5, 50), rng.uniform(-2.0, 40.0), np.float64(rng.random()))
        )
        ours.record(time, value)
        theirs.record(time, value)
    assert len(theirs) == samples + 1


@pytest.mark.parametrize("seed", SEEDS)
def test_time_series_agrees_with_the_two_lists_it_replaced(seed):
    _drive_series_oracle(seed)


class _WindowBisectsRight(TimeSeries):
    __slots__ = ()

    def window(self, start, end):
        lo, hi = np.searchsorted(self.times, (start, end), side="right")
        out = TimeSeries(self.name)
        for time, value in zip(self.times[lo:hi].tolist(), self.values[lo:hi].tolist()):
            out.record(time, value)
        return out


class _IntegratesInNumpyOrder(TimeSeries):
    __slots__ = ()

    def integrate(self):
        if len(self) < 2:
            return 0.0
        return float(np.dot(self.values[:-1], np.diff(self.times)))


@pytest.mark.parametrize("mutant", (_WindowBisectsRight, _IntegratesInNumpyOrder))
def test_series_oracle_catches_a_right_bisect_and_a_vectorised_integral(mutant):
    caught = 0
    for seed in SEEDS:
        try:
            _drive_series_oracle(seed, series_type=mutant)
        except AssertionError:
            caught += 1
    assert caught == len(SEEDS)
