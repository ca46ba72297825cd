"""Differential oracles for representations and fast paths that replaced code.

Each test drives the code that now runs against the code it replaced (kept
here as the reference) on seeded random inputs and requires identical
results — not close ones:

* ``VersionStamp`` is a ``NamedTuple``; it must behave as the plain tuple of
  its two fields under every operation the request path uses.
* ``InconsistencyWindowTracker`` keeps one high-water mark per (key,
  replica); the reference is the tracker that buffered a key's last 32
  applies and scanned them on every ack, verbatim.  A mark that keeps the
  replica's *latest* stamp instead of its *newest* must be caught, and the one
  documented difference (a hot key's window the capped buffer left open) is
  pinned by name.
* ``AckedVersionRegistry`` answers a read issued after the key's last ack
  from a kept pair; the reference scans the 16-entry history on every query.
  An eviction that keeps the evicted stamp as the newest must be caught.
* ``CompositeLoad.rate`` adds its parts in a loop; the reference is the
  ``sum()`` over a generator it unrolls, bit for bit.
* ``StorageEngine.apply`` takes a first-version branch and otherwise
  compares the two stamps once; the reference is the general path through
  ``compare_versions``.
* ``HashRing.preference_list`` answers a miss from a table with one owner
  tuple per token range; the reference is the clockwise walk it made for
  every key, verbatim.  A ``remove_node`` that keeps the table and a table
  without its wrap-around entry must be caught.
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
* ``QueueingServer`` queues ``(demand, callback, enqueue time)`` tuples and
  keeps its effective rate as an attribute its setters write; the reference
  is the server that queued one ``ServiceRequest`` per unit of work and
  multiplied the rate out on every read, verbatim.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Deque, Optional

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, StorageEngine, VersionStamp, VersionedValue
import repro.cluster.coordinator as coordinator_module
from repro.cluster.coordinator import DEFAULT_VALUE_SIZE, AckedVersionRegistry
from repro.cluster.ring import HashRing, hash_key
from repro.cluster.versioning import compare_versions
import repro.consistency.window_tracker as window_tracker
from repro.consistency.window_tracker import InconsistencyWindowTracker
from repro.middleware import (
    LatencyAwareReplicaSelection,
    NodeRttTracker,
    RequestHedging,
    RttAwareWriteRouting,
)
from repro.middleware import latency
from repro.experiments.scenarios import diurnal_with_flash_crowd
from repro.simulation import QueueingServer, ResourceError, Simulator, TimeSeries
from repro.simulation.randomness import LognormalSampler
from repro.simulation.resources import UtilizationTracker
from repro.simulation.timeseries import _EMPTY_SUMMARY, SeriesSummary
from repro.workload.load_shapes import CompositeLoad, ConstantLoad

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
# StorageEngine.apply against the general path through compare_versions
# ----------------------------------------------------------------------
class _ReferenceEngine(StorageEngine):
    def apply(self, key, version):
        current = self._data.get(key)
        if compare_versions(version, current) <= 0 and current is not None:
            self.stats.writes_superseded += 1
            return False
        if current is not None:
            self.stats.bytes_stored -= current.size
            if current.is_tombstone:
                self.stats.tombstones -= 1
        self._data[key] = version
        self.stats.bytes_stored += version.size
        self.stats.writes_applied += 1
        if version.is_tombstone:
            self.stats.tombstones += 1
        return True


def _engine_state(engine):
    return list(engine._data.items()), engine.stats


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
# HashRing's per-token placement table against the per-key walk
# ----------------------------------------------------------------------
def _walked_preference_list(ring, key, replication_factor):
    """The miss path of ``HashRing.preference_list`` as it stood at 492c829:
    one clockwise walk over the tokens for every key."""
    if not ring._tokens:
        return ()
    count = min(replication_factor, len(ring._nodes))
    position = hash_key(key)
    start = bisect.bisect_right(ring._tokens, position) % len(ring._tokens)
    owners = []
    seen = set()
    index = start
    for _ in range(len(ring._tokens)):
        owner = ring._token_owner[ring._tokens[index]]
        if owner not in seen:
            owners.append(owner)
            seen.add(owner)
            if len(owners) == count:
                break
        index = (index + 1) % len(ring._tokens)
    return tuple(owners)


# Sorted by ring position, so that the ends of the list are the keys most
# likely to lie before the first token and beyond the last one.
_PLACED_KEYS = sorted((f"placed{index}" for index in range(3000)), key=hash_key)


def _drive_placement_oracle(seed, virtual_nodes, ring_type=HashRing):
    """One seeded script of joins and leaves over 1-8 nodes.  Before and after
    every mutation the same keys are placed at RF 1-5 (so RF > nodes, the miss
    and then the hit) on the ring and, now and then, on a copy of it."""
    rng = random.Random(seed)
    ring = ring_type(virtual_nodes)
    keys = _PLACED_KEYS[:4] + _PLACED_KEYS[-4:] + rng.sample(_PLACED_KEYS, 40)
    seen = dict.fromkeys(("wrapped", "short", "copied", "removed"), 0)

    def check(placed_on):
        for key in keys:
            for replication_factor in range(1, 6):
                expected = _walked_preference_list(placed_on, key, replication_factor)
                context = (seed, sorted(placed_on._nodes), key, replication_factor)
                for _miss_then_hit in range(2):
                    answer = placed_on.preference_list(key, replication_factor)
                    assert type(answer) is tuple and answer == expected, context
                seen["short"] += len(expected) < replication_factor
            if placed_on._tokens:
                seen["wrapped"] += hash_key(key) >= placed_on._tokens[-1]

    check(ring)  # empty
    assert ring.preference_list("anything", 3) == ()
    members, joined = [], 0
    for _ in range(30):
        if not members or (len(members) < 8 and rng.random() < 0.55):
            joined += 1
            members.append(f"node-{joined}")
            ring.add_node(members[-1])
        else:
            ring.remove_node(members.pop(rng.randrange(len(members))))
            seen["removed"] += 1
        check(ring)
        if rng.random() < 0.3:
            clone = ring.copy()  # of a warmed ring: it must not share the answers
            check(clone)
            clone.add_node("node-elsewhere")
            check(clone)
            if members:
                clone.remove_node(rng.choice(members))
                check(clone)
            check(ring)
            seen["copied"] += 1
    assert all(count > 3 for count in seen.values()), seen


@pytest.mark.parametrize("virtual_nodes", (1, 8, 64))
@pytest.mark.parametrize("seed", SEEDS)
def test_placement_table_agrees_with_the_per_key_walk(seed, virtual_nodes):
    _drive_placement_oracle(seed, virtual_nodes)


class _RemoveKeepsTable(HashRing):
    def remove_node(self, node_id):
        tables = dict(self._placement_tables)
        super().remove_node(node_id)
        self._placement_tables.update(tables)


class _TableWithoutWrapEntry(HashRing):
    def _placement_table(self, count):
        return super()._placement_table(count)[:-1]


@pytest.mark.parametrize("mutant", (_RemoveKeepsTable, _TableWithoutWrapEntry))
@pytest.mark.parametrize("virtual_nodes", (1, 8, 64))
def test_placement_oracle_catches_a_kept_table_and_a_missing_wrap_entry(
    mutant, virtual_nodes
):
    for seed in SEEDS:
        # A table that is too short answers a wrapped key with an IndexError.
        with pytest.raises((AssertionError, IndexError)):
            _drive_placement_oracle(seed, virtual_nodes, ring_type=mutant)


# ----------------------------------------------------------------------
# The window tracker's per-replica marks against the buffer they replaced
# ----------------------------------------------------------------------
@dataclass
class _ReferenceWindowRecord:
    key: str
    stamp: VersionStamp
    ack_time: float
    replica_set: tuple
    applied: set = field(default_factory=set)
    closed_at: Optional[float] = None

    @property
    def window(self):
        if self.closed_at is None:
            return None
        return max(0.0, self.closed_at - self.ack_time)


class _ListScanningTracker:
    """The tracker as it stood at 0469955: per key, a buffer of the last 32
    ``(stamp, node, time)`` applies that every ack scans."""

    def __init__(self, simulator, config):
        self._simulator = simulator
        self._config = config
        self._open_by_key = {}
        self._recent_applies = {}
        self._out_of_order = set()
        self._windows = TimeSeries("inconsistency_window")
        self.windows_opened = 0
        self.windows_closed = 0
        self.windows_expired = 0
        self.zero_windows = 0
        simulator.call_every(
            self._config.expiry_scan_interval,
            self._expire_stale_windows,
            label="window-tracker:expiry",
            priority=Simulator.PRIORITY_LATE,
        )

    def on_write_acked(self, key, stamp, ack_time, replica_set):
        record = _ReferenceWindowRecord(
            key=key,
            stamp=stamp,
            ack_time=ack_time,
            replica_set=tuple(replica_set),
        )
        self.windows_opened += 1

        # Fold in replica applies that already happened (same or newer stamp).
        for applied_stamp, node_id, _time in self._recent_applies.get(key, ()):  # noqa: B007
            if applied_stamp >= stamp and node_id in record.replica_set:
                record.applied.add(node_id)

        if set(record.replica_set) <= record.applied:
            record.closed_at = ack_time
            self.zero_windows += 1
            self._record_closed(record)
            return
        self._open_by_key.setdefault(key, {})[stamp] = record

    def on_replica_applied(self, key, stamp, node_id, time, background):
        self._remember_apply(key, stamp, node_id, time)
        open_records = self._open_by_key.get(key)
        if not open_records:
            return
        closed = []
        for record_stamp, record in open_records.items():
            if stamp < record_stamp or node_id not in record.replica_set:
                continue
            record.applied.add(node_id)
            if set(record.replica_set) <= record.applied:
                record.closed_at = max(time, record.ack_time)
                closed.append(record_stamp)
                self._record_closed(record)
        for record_stamp in closed:
            del open_records[record_stamp]
        if not open_records:
            self._open_by_key.pop(key, None)

    def _remember_apply(self, key, stamp, node_id, time):
        entries = self._recent_applies.get(key)
        if entries is None:
            entries = self._recent_applies[key] = []
        elif entries and time < entries[-1][2]:
            self._out_of_order.add(key)
        entries.append((stamp, node_id, time))
        if len(entries) > 32:
            cutoff = self._simulator.now - self._config.early_apply_retention
            if entries[1][2] >= cutoff and key not in self._out_of_order:
                del entries[0]
            else:
                self._recent_applies[key] = [
                    entry for entry in entries if entry[2] >= cutoff
                ][-32:]

    def _record_closed(self, record):
        self.windows_closed += 1
        self._windows.record(self._simulator.now, record.window or 0.0)

    def _expire_stale_windows(self):
        now = self._simulator.now
        for key in list(self._open_by_key):
            records = self._open_by_key[key]
            expired = [
                stamp
                for stamp, record in records.items()
                if now - record.ack_time > self._config.max_open_age
            ]
            for stamp in expired:
                record = records.pop(stamp)
                self.windows_expired += 1
                self._windows.record(now, now - record.ack_time)
            if not records:
                del self._open_by_key[key]

        cutoff = now - self._config.early_apply_retention
        for key in list(self._recent_applies):
            entries = [entry for entry in self._recent_applies[key] if entry[2] >= cutoff]
            if entries:
                self._recent_applies[key] = entries
            else:
                del self._recent_applies[key]

    @property
    def series(self):
        return self._windows

    @property
    def open_windows(self):
        return sum(len(records) for records in self._open_by_key.values())


def _tracker_state(tracker):
    return {
        "times": tracker.series.times.tolist(),
        "values": tracker.series.values.tolist(),
        "opened": tracker.windows_opened,
        "closed": tracker.windows_closed,
        "expired": tracker.windows_expired,
        "zero": tracker.zero_windows,
        "open": tracker.open_windows,
    }


_TRACKED_NODES = ("node-1", "node-2", "node-3", "node-4")


@dataclass
class _ScriptedWrite:
    """One write in flight in the tracker oracle's script."""

    stamp: VersionStamp
    replicas: tuple
    undelivered: list
    """Nodes whose apply of this write is still to be delivered."""

    acked: bool = False
    followed_by: int = -1
    """Applies of the key since this write's first one (-1: none yet)."""


def _tracker_config():
    """The tracker's constants as the attributes the reference reads."""
    return SimpleNamespace(
        max_open_age=window_tracker.MAX_OPEN_AGE,
        expiry_scan_interval=window_tracker.EXPIRY_SCAN_INTERVAL,
        early_apply_retention=window_tracker.EARLY_APPLY_RETENTION,
    )


def _drive_tracker_oracle(monkeypatch, seed, in_order, tracker_type=InconsistencyWindowTracker):
    """Feed one seeded script of interleaved acks and applies over 6 keys x 3
    replicas to ``tracker_type`` and to the list-scanning reference, and
    compare everything a report reads after every step.

    A write's three applies and its ack are delivered in random order among
    those of up to four other writes in flight on the same key, so applies
    land before and after their ack, a newer stamp's apply closes an older
    stamp's window, and an older stamp lands after a newer one on the same
    replica.  Some replicas never apply (their windows expire at
    ``max_open_age``), some applies are delivered twice (a repair), and some
    come from a node outside the replica set.  The script stays inside the
    reference's two memory bounds -- it ends before ``early_apply_retention``
    and a write is acked before 32 applies of its key have followed its
    first one -- because that is where the two must agree.
    """
    rng = random.Random(seed)
    monkeypatch.setattr(window_tracker, "MAX_OPEN_AGE", 20.0)
    monkeypatch.setattr(window_tracker, "EXPIRY_SCAN_INTERVAL", 7.0)
    simulators = Simulator(seed=seed), Simulator(seed=seed)
    ours = tracker_type(simulators[0])
    reference = _ListScanningTracker(simulators[1], _tracker_config())
    keys = [f"k{index}" for index in range(6)]
    in_flight = {key: [] for key in keys}
    seen = dict.fromkeys(
        ("early", "late", "superseded", "older_after_newer", "stranger", "zero"), 0
    )
    newest_applied = {}
    sequence = 0
    while simulators[0].now < 100.0:
        pause = rng.choices((0.0, 0.002, 0.05, 0.6), (40, 40, 15, 5))[0]
        for simulator in simulators:
            simulator.run_until(simulator.now + pause)
        now = simulators[0].now
        key = rng.choice(keys)
        writes = in_flight[key]
        overdue = [w for w in writes if not w.acked and w.followed_by >= 30]
        roll = rng.random()
        if overdue:
            write, action = overdue[0], "ack"
        elif not writes or (roll < 0.25 and len(writes) < 5):
            sequence += 1
            replicas = tuple(rng.sample(_TRACKED_NODES, 3))
            # One write in eight has a replica that never applies it (a newer
            # write's apply usually closes its window), and node-4 never
            # applies the last key at all (those windows can only expire).
            applies = [
                node_id
                for node_id in replicas[: 2 if rng.random() < 0.125 else 3]
                if (key, node_id) != (keys[-1], "node-4")
            ]
            if rng.random() < 0.2:
                applies.append(rng.choice(applies))  # delivered twice
            rng.shuffle(applies)
            writes.append(_ScriptedWrite(VersionStamp(now, sequence), replicas, applies))
            continue
        elif roll < 0.35:
            write, action = rng.choice(writes), "stranger"
        else:
            write = rng.choice(writes)
            ack = not write.acked and (not write.undelivered or rng.random() < 0.35)
            action = "ack" if ack else "apply"
            if action == "apply" and not write.undelivered:
                continue
        stamp = write.stamp
        if action == "ack":
            write.acked = True
            seen["early" if write.undelivered else "zero"] += 1
            for tracker in (ours, reference):
                tracker.on_write_acked(key, stamp, now, write.replicas)
        else:
            if action == "stranger":
                node_id = "node-9"
                seen["stranger"] += 1
            else:
                node_id = write.undelivered.pop()
                seen["late"] += write.acked
                write.followed_by = max(write.followed_by, 0)
                known = newest_applied.get((key, node_id))
                if known is not None and known > stamp:
                    seen["older_after_newer"] += 1
                else:
                    newest_applied[(key, node_id)] = stamp
                seen["superseded"] += any(
                    other.acked and other.stamp < stamp for other in writes
                )
            time = now if in_order else now - rng.choice((0.0, 0.0, 0.5, 5.0))
            for other in writes:
                if other.followed_by >= 0:
                    other.followed_by += 1
            for tracker in (ours, reference):
                tracker.on_replica_applied(key, stamp, node_id, time, False)
        if write.acked and not write.undelivered:
            writes.remove(write)
        assert _tracker_state(ours) == _tracker_state(reference), (seed, now, key)
    assert all(count > 20 for count in seen.values()), seen
    assert reference.windows_expired > 20 and reference.open_windows > 0
    assert reference.series.values.max() > 0.0


@pytest.mark.parametrize("in_order", (True, False))
@pytest.mark.parametrize("seed", SEEDS)
def test_replica_marks_agree_with_the_list_scanning_tracker(monkeypatch, seed, in_order):
    _drive_tracker_oracle(monkeypatch, seed, in_order)


class _MarkKeepsLatestStamp(InconsistencyWindowTracker):
    """A mark that follows the replica's last apply, not its newest one: an
    older version landing late makes the replica look behind again."""

    def on_replica_applied(self, key, stamp, node_id, time, background):
        super().on_replica_applied(key, stamp, node_id, time, background)
        self._marks[key][node_id] = stamp


def test_tracker_oracle_catches_a_mark_that_keeps_the_latest_stamp(monkeypatch):
    with pytest.raises(AssertionError):
        _drive_tracker_oracle(monkeypatch, SEEDS[0], True, _MarkKeepsLatestStamp)


def test_a_hot_key_window_closes_where_the_capped_buffer_left_it_open():
    """The one documented difference: 40 applies of a hot key between a
    write's applies and its ack push the deciding applies out of the
    reference's 32-entry buffer, which then leaves a converged window open
    until the key's next apply.  The marks have no cap to evict from."""
    ours = InconsistencyWindowTracker(Simulator(seed=1))
    reference = _ListScanningTracker(Simulator(seed=1), _tracker_config())
    replicas = ("node-1", "node-2", "node-3")
    stamp = VersionStamp(1.0, 100)
    for tracker in (ours, reference):
        for node_id in replicas:
            tracker.on_replica_applied("hot", stamp, node_id, 1.0, False)
        # Forty older versions of the same key land late on the same replicas.
        for late in range(40):
            older = VersionStamp(0.5, late)
            tracker.on_replica_applied("hot", older, replicas[late % 3], 1.0, False)
        tracker.on_write_acked("hot", stamp, 1.0, replicas)
    assert ours.open_windows == 0 and ours.zero_windows == ours.windows_closed == 1
    assert ours.series.values.tolist() == [0.0]
    assert reference.open_windows == 1 and reference.windows_closed == 0


# ----------------------------------------------------------------------
# AckedVersionRegistry's kept answer against the scan of the history
# ----------------------------------------------------------------------
class _ScanningRegistry:
    """The registry as it stood at 0469955: every query scans the history."""

    def __init__(self, history=16):
        self._history = history
        self._acked = {}

    def record_ack(self, key, stamp, ack_time):
        entries = self._acked.setdefault(key, [])
        entries.append((ack_time, stamp))
        if len(entries) > self._history:
            del entries[0 : len(entries) - self._history]

    def newest_acked_before(self, key, time):
        entries = self._acked.get(key)
        if not entries:
            return None
        newest = None
        for ack_time, stamp in entries:
            if ack_time <= time and (newest is None or stamp > newest):
                newest = stamp
        return newest


def _drive_registry_oracle(monkeypatch, seed, registry_type=AckedVersionRegistry, history=16):
    rng = random.Random(seed)
    monkeypatch.setattr(coordinator_module, "ACK_HISTORY", history)
    ours, reference = registry_type(), _ScanningRegistry(history)
    keys = ("k0", "k1", "k2", "once", "never")
    clock = 0.0
    evictions = newest_evicted = out_of_order = overlapping = 0
    for sequence in range(1, 1500):
        clock += rng.choice((0.0, 0.01, 0.5))
        key = rng.choice(keys[:3]) if sequence > 1 else "once"
        retained = reference._acked.get(key, [])
        # Mostly the clock; sometimes an ack that is reported late.
        ack_time = clock - rng.choice((0.0, 0.0, 0.0, 0.3, 2.0))
        out_of_order += bool(retained) and ack_time < retained[-1][0]
        # Mostly a newer stamp; one in ten jumps far ahead, so that it is the
        # newest for as long as it is retained and leaves by eviction.
        timestamp = clock + (50.0 if rng.random() < 0.1 else 0.0)
        stamp = VersionStamp(timestamp, sequence)
        if len(retained) == history:
            evictions += 1
            newest_evicted += retained[0][1] == max(entry[1] for entry in retained)
        for registry in (ours, reference):
            registry.record_ack(key, stamp, ack_time)
        assert ours._acked == reference._acked

        for queried in keys:
            retained = reference._acked.get(queried, [])
            times = sorted({entry[0] for entry in retained})
            probes = [-math.inf, math.inf, clock, clock + 1.0, rng.uniform(-3.0, clock + 3.0)]
            if times:
                probes += [times[0] - 0.1, times[0], times[-1], times[-1] + 0.1]
                probes += [rng.choice(times), (rng.choice(times) + rng.choice(times)) / 2.0]
                overlapping += sum(probe < times[-1] for probe in probes)
            for probe in probes:
                expected = reference.newest_acked_before(queried, probe)
                assert ours.newest_acked_before(queried, probe) == expected, (
                    seed, sequence, queried, probe,
                )
    assert len(reference._acked["once"]) == 1 and "never" not in reference._acked
    assert evictions > 10 * history and newest_evicted > 20
    assert out_of_order > 50 and overlapping > 1000


@pytest.mark.parametrize("history", (1, 2, 16))
@pytest.mark.parametrize("seed", SEEDS)
def test_acked_registry_agrees_with_the_scanning_registry(monkeypatch, seed, history):
    _drive_registry_oracle(monkeypatch, seed, history=history)


class _EvictionKeepsNewest(AckedVersionRegistry):
    """Skips the re-derivation: the kept stamp only ever grows, so it
    outlives the ack that carried it."""

    def record_ack(self, key, stamp, ack_time):
        before = self._latest.get(key)
        super().record_ack(key, stamp, ack_time)
        if before is not None:
            self._latest[key] = (self._latest[key][0], max(before[1], stamp))


def test_registry_oracle_catches_an_eviction_that_keeps_the_evicted_stamp(monkeypatch):
    with pytest.raises(AssertionError):
        _drive_registry_oracle(monkeypatch, SEEDS[0], _EvictionKeepsNewest)


# ----------------------------------------------------------------------
# CompositeLoad.rate's loop against the sum() it unrolls
# ----------------------------------------------------------------------
def test_composite_load_adds_its_parts_as_sum_does():
    # E5's day (benchmarks/ledger/workloads.py::_autoscale_diurnal at 8 s).
    duration = 480.0
    noisy = diurnal_with_flash_crowd(
        trough=45.0,
        peak=135.0,
        period=duration,
        flash_rate=200.0,
        flash_start=duration * 0.65,
    )
    composite = noisy._base
    assert isinstance(composite, CompositeLoad) and len(composite._shapes) == 2
    rng = random.Random(5)
    times = [duration * index / 5000.0 for index in range(5000)]
    times += [rng.uniform(-10.0, duration + 400.0) for _ in range(5000)]
    nonzero_flash = 0
    for t in times:
        expected = sum(shape.rate(t) for shape in composite._shapes)
        ours = composite.rate(t)
        assert type(ours) is type(expected) and ours.hex() == expected.hex(), t
        nonzero_flash += composite._shapes[1].rate(t) != 0.0
    assert nonzero_flash > 1000
    # One part, and the integer zero sum() starts from.
    assert CompositeLoad([ConstantLoad(3.5)]).rate(0.0).hex() == (3.5).hex()
    assert type(CompositeLoad([_IntegerRate()]).rate(0.0)) is int


class _IntegerRate(ConstantLoad):
    def __init__(self):
        super().__init__(1.0)

    def rate(self, t):
        return 2


# ----------------------------------------------------------------------
# Cluster.preload against apply-per-record-and-replica
# ----------------------------------------------------------------------
def _reference_preload(cluster, items, sizes):
    now = cluster._simulator.now
    for key, value in items.items():
        stamp = VersionStamp(timestamp=now, sequence=cluster.coordinator.next_sequence())
        size = sizes.get(key, DEFAULT_VALUE_SIZE)
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
    cutoff = estimate(ranked[0]) * (1.0 + latency.BADNESS_THRESHOLD)
    healthy = len(ranked)
    while healthy > 1 and estimate(ranked[healthy - 1]) > cutoff:
        healthy -= 1
    if healthy < len(ranked):
        self.avoidances += 1
        self._since_explore += 1
        if self._since_explore >= latency.EXPLORE_EVERY:
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
    cutoff = estimate(ranked[0]) * (1.0 + latency.BADNESS_THRESHOLD)
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
    """Drive the stages and their references through one seeded run, with
    the smoothing factor, badness threshold and exploration period drawn
    from the seed."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(latency, "RTT_ALPHA", rng.choice((0.3, 1.0)))
        patch.setattr(latency, "BADNESS_THRESHOLD", rng.choice((0.0, 0.5, 2.0)))
        patch.setattr(latency, "EXPLORE_EVERY", rng.randrange(2, 6))
        return _run_ranking_oracle(rng, with_fallback, tracker_type, steps)


def _run_ranking_oracle(rng, with_fallback, tracker_type, steps):
    congestion = [0.004]
    fallback = (lambda: congestion[0]) if with_fallback else None
    tracker = tracker_type(fallback=fallback)

    def stages(estimates):
        return (
            LatencyAwareReplicaSelection(estimates),
            RttAwareWriteRouting(estimates),
            RequestHedging(estimates, operation_timeout=1.0, clock=lambda: 0.0, budget_fraction=0.05),
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
        assert answer == expected, (nodes, tracked)
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


def test_ranked_hands_out_the_generation_ranking_for_the_whole_sampled_set_alone():
    """``ranked``'s full-set fast path against its filtered path against a
    sort from scratch, over random ``observe``/``forget`` sequences: subsets,
    unsampled and forgotten nodes, with and without a fallback."""
    handed_out = 0
    for seed in range(1, 9):
        rng = random.Random(seed)
        for fallback in (None, lambda: 0.004):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(latency, "RTT_ALPHA", rng.choice((0.3, 1.0)))
                tracker = NodeRttTracker(fallback=fallback)
            for _ in range(400):
                action = rng.random()
                if action < 0.3:
                    tracker.observe(rng.choice(_UNIVERSE[:6]), rng.choice(_RTTS))
                    continue
                if action < 0.4:
                    tracker.forget(rng.choice(_UNIVERSE))
                    continue
                estimates = tracker.snapshot()
                if action < 0.7:
                    nodes = rng.sample(sorted(estimates), len(estimates))
                else:
                    nodes = _handed_nodes(rng, estimates)
                ranked, unknown, slow = tracker.ranked(nodes)
                sampled = sorted((estimates[node], node) for node in nodes if node in estimates)
                unsampled = sorted(node for node in nodes if node not in estimates)
                if fallback is not None and unsampled:
                    expected = sorted(sampled + [(fallback(), node) for node in unsampled]), []
                else:
                    expected = sampled, unsampled
                assert (ranked, unknown) == expected, (seed, nodes, estimates)
                # The healthy prefix as each stage used to find it, from the back.
                slack = 1.0 + latency.BADNESS_THRESHOLD
                healthy = len(ranked)
                while healthy > 1 and ranked[healthy - 1][0] > ranked[0][0] * slack:
                    healthy -= 1
                assert slow == len(ranked) - healthy, (seed, nodes, estimates)
                if not unsampled:
                    filtered = [pair for pair in tracker._ranking if pair[1] in nodes]
                    assert ranked == filtered
                whole_set = set(nodes) == set(estimates)
                assert (ranked is tracker._ranking) == whole_set, (seed, nodes, estimates)
                handed_out += whole_set
    assert handed_out > 500


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

    def __init__(self, fallback):
        value = []

        def first_value():
            if not value:
                value.append(fallback())
            return value[0]

        super().__init__(first_value)


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
    bounds = _query_bounds(rng, theirs.times)
    for start in bounds:
        for end in bounds:
            window = ours.window(start, end)
            _same_samples(window, theirs.window(start, end))
            assert window.name == ours.name
            assert not np.shares_memory(window.values, ours.values)
            assert not np.shares_memory(window.times, ours.times)


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


# ----------------------------------------------------------------------
# QueueingServer: tuples and a kept rate against one record per request
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ServiceRequest:
    """A unit of work submitted to a :class:`QueueingServer` (one per request)."""

    demand: float
    """Service demand in seconds at nominal (1.0) speed."""

    on_complete: Callable[[float], None]
    """Callback invoked with the completion time when service finishes."""

    enqueued_at: float = 0.0
    started_at: Optional[float] = None
    label: Optional[str] = None


_demand_of = attrgetter("demand")


def _positive(name: str, value: float) -> float:
    """``value`` as a float; one ``ResourceError`` naming it unless finite and > 0.

    NaN fails every comparison, so the range is tested as "inside", never as
    "not outside".
    """
    if not 0.0 < value < math.inf:
        raise ResourceError(f"{name} must be finite and > 0, got {value}")
    return float(value)


class _RecordQueueingServer:
    """``QueueingServer`` as it was while it queued ``ServiceRequest`` records."""

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        service_rate: float = 1.0,
        service_cv: float = 0.25,
    ) -> None:
        if not 0.0 <= service_cv < math.inf:
            raise ResourceError(f"service_cv must be finite and >= 0, got {service_cv}")
        self._simulator = simulator
        self._name = name
        self._service_rate = _positive("service_rate", service_rate)
        self._speed_factor = 1.0
        self._fault_factor = 1.0
        self._service_cv = float(service_cv)
        self._queue: Deque[ServiceRequest] = deque()
        self._in_service: Optional[ServiceRequest] = None
        self._normal = simulator.streams.normals(f"server:{name}")
        self._noise = LognormalSampler(self._service_cv)
        self._finish_label = f"server:{name}:finish"
        self.utilization = UtilizationTracker()
        self._completed = 0
        self._total_busy_time = 0.0
        self._total_queue_time = 0.0

    def set_speed_factor(self, factor: float) -> None:
        self._speed_factor = _positive("speed factor", factor)

    def set_fault_factor(self, factor: float) -> None:
        self._fault_factor = _positive("fault factor", factor)

    @property
    def effective_rate(self) -> float:
        return self._service_rate * self._speed_factor * self._fault_factor

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def total_busy_time(self) -> float:
        return self._total_busy_time

    @property
    def mean_queue_delay(self) -> float:
        if self._completed == 0:
            return 0.0
        return self._total_queue_time / self._completed

    def submit(
        self,
        demand: float,
        on_complete: Callable[[float], None],
        label: Optional[str] = None,
    ) -> None:
        if not 0.0 <= demand < math.inf:
            raise ResourceError(f"service demand must be finite and >= 0, got {demand}")
        noisy_demand = self._noise.sample_with(self._normal, demand)
        request = ServiceRequest(
            demand=noisy_demand,
            on_complete=on_complete,
            enqueued_at=self._simulator.now,
            label=label,
        )
        self._queue.append(request)
        if self._in_service is None:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            return
        request = self._queue.popleft()
        now = self._simulator.now
        request.started_at = now
        self._total_queue_time += now - request.enqueued_at
        self._in_service = request
        self.utilization.mark_busy(now)
        service_time = request.demand / self.effective_rate
        self._simulator.post_in(
            service_time, self._finish, request, label=self._finish_label
        )

    def _finish(self, request: ServiceRequest) -> None:
        now = self._simulator.now
        self._completed += 1
        if request.started_at is not None:
            self._total_busy_time += now - request.started_at
        self._in_service = None
        if self._queue:
            self._start_next()
        else:
            self.utilization.mark_idle(now)
        request.on_complete(now)

    def estimated_wait(self) -> float:
        backlog = sum(map(_demand_of, self._queue))
        if self._in_service is not None:
            backlog += self._in_service.demand / 2.0
        return backlog / self.effective_rate


def _server_script(rng: random.Random, steps: int = 400):
    """``(time, action, value)`` steps: zero, repeated and mixed demands, the
    three rate setters mid-queue, and probes, often several at one instant."""
    repeated = rng.uniform(0.002, 0.02)
    script, time = [], 0.0
    for _ in range(steps):
        time += rng.choice((0.0, rng.expovariate(150.0), rng.uniform(0.0, 0.04)))
        action = rng.choices(
            ("submit", "set_speed_factor", "set_fault_factor", "probe"),
            weights=(12, 1, 1, 4),
        )[0]
        if action == "submit":
            value = rng.choice((0.0, repeated, rng.uniform(0.0, 0.03), rng.expovariate(80.0)))
        elif action == "set_speed_factor":
            value = rng.choice((1.0, rng.uniform(0.2, 1.5)))
        elif action == "set_fault_factor":
            value = rng.choice((1.0, 0.25, rng.uniform(0.05, 1.0)))
        else:
            value = None
        script.append((time, action, value))
    return script


def _run_server_script(server_type, seed, service_rate, service_cv, script):
    """Everything a caller can see of one server driven through ``script``."""
    simulator = Simulator(seed=seed)
    server = server_type(simulator, "oracle", service_rate=service_rate, service_cv=service_cv)
    seen = []

    def probe(index):
        seen.append(
            (
                "probe",
                index,
                simulator.now,
                server.estimated_wait(),
                server.utilization.sample(simulator.now),
                server.utilization.last_utilization,
                server.effective_rate,
                server.queue_length,
                server._in_service is not None,
                server.completed,
                server.mean_queue_delay,
                server.total_busy_time,
            )
        )

    def act(index, action, value):
        if action == "submit":
            server.submit(value, lambda now: seen.append(("done", index, now)))
        elif action == "probe":
            probe(index)
        else:
            getattr(server, action)(value)

    for index, (time, action, value) in enumerate(script):
        simulator.schedule(time, act, index, action, value)
    simulator.run_until_empty()
    probe(len(script))
    return seen


def _drive_server_oracle(seed, server_type=QueueingServer):
    rng = random.Random(seed)
    service_rate = rng.choice((1.0, 0.75, 2.5))
    service_cv = rng.choice((0.0, 0.25, 0.6))
    script = _server_script(rng)
    ours = _run_server_script(server_type, seed, service_rate, service_cv, script)
    theirs = _run_server_script(
        _RecordQueueingServer, seed, service_rate, service_cv, script
    )
    assert sum(entry[0] == "done" for entry in theirs) > 200
    # ``repr`` tells every float apart that ``==`` would not (-0.0 from 0.0).
    assert repr(ours) == repr(theirs)


@pytest.mark.parametrize("seed", SEEDS)
def test_queueing_server_agrees_with_the_record_queueing_server(seed):
    _drive_server_oracle(seed)
