"""Unit tests for the ground-truth window tracker and staleness observer."""

from __future__ import annotations

import pytest

from repro.cluster import VersionStamp
from repro.cluster.types import OperationType, ReadResult, WriteResult
import repro.consistency.window_tracker as window_tracker
from repro.consistency import InconsistencyWindowTracker, StalenessObserver
from repro.simulation import Simulator


def stamp(ts, seq=0):
    return VersionStamp(timestamp=ts, sequence=seq)


def make_tracker(simulator):
    return InconsistencyWindowTracker(simulator)


def test_window_closes_when_all_replicas_apply():
    simulator = Simulator(seed=0)
    tracker = make_tracker(simulator)
    s = stamp(1.0)
    tracker.on_write_acked("k", s, ack_time=1.0, replica_set=["a", "b", "c"])
    tracker.on_replica_applied("k", s, "a", 1.0, False)
    tracker.on_replica_applied("k", s, "b", 1.2, False)
    assert tracker.open_windows == 1
    tracker.on_replica_applied("k", s, "c", 1.5, False)
    assert tracker.open_windows == 0
    assert tracker.windows_closed == 1
    assert tracker.mean_window() == pytest.approx(0.5)


def test_applies_before_ack_count_towards_window():
    simulator = Simulator(seed=0)
    tracker = make_tracker(simulator)
    s = stamp(2.0)
    tracker.on_replica_applied("k", s, "a", 1.9, False)
    tracker.on_replica_applied("k", s, "b", 1.95, False)
    tracker.on_replica_applied("k", s, "c", 1.99, False)
    tracker.on_write_acked("k", s, ack_time=2.0, replica_set=["a", "b", "c"])
    assert tracker.windows_closed == 1
    assert tracker.zero_windows == 1
    assert tracker.mean_window() == 0.0


def test_newer_version_apply_closes_older_window():
    simulator = Simulator(seed=0)
    tracker = make_tracker(simulator)
    old = stamp(1.0, 1)
    new = stamp(2.0, 2)
    tracker.on_write_acked("k", old, ack_time=1.0, replica_set=["a", "b"])
    tracker.on_replica_applied("k", old, "a", 1.0, False)
    # Replica b never applies the old write but applies the newer one.
    tracker.on_write_acked("k", new, ack_time=2.0, replica_set=["a", "b"])
    tracker.on_replica_applied("k", new, "a", 2.0, False)
    tracker.on_replica_applied("k", new, "b", 3.0, False)
    assert tracker.open_windows == 0
    assert tracker.windows_closed == 2
    # The old write's window closed at 3.0 (when b converged past it).
    assert max(tracker.series.values) == pytest.approx(2.0)


def test_older_apply_does_not_close_newer_window():
    simulator = Simulator(seed=0)
    tracker = make_tracker(simulator)
    old = stamp(1.0, 1)
    new = stamp(2.0, 2)
    tracker.on_write_acked("k", new, ack_time=2.0, replica_set=["a", "b"])
    tracker.on_replica_applied("k", old, "b", 2.5, False)
    assert tracker.open_windows == 1


def test_applies_from_non_replica_nodes_are_ignored():
    simulator = Simulator(seed=0)
    tracker = make_tracker(simulator)
    s = stamp(1.0)
    tracker.on_write_acked("k", s, ack_time=1.0, replica_set=["a", "b"])
    tracker.on_replica_applied("k", s, "z", 1.5, False)
    assert tracker.open_windows == 1


def test_expired_windows_are_censored_not_dropped(monkeypatch):
    monkeypatch.setattr(window_tracker, "MAX_OPEN_AGE", 50.0)
    monkeypatch.setattr(window_tracker, "EXPIRY_SCAN_INTERVAL", 10.0)
    simulator = Simulator(seed=0)
    tracker = make_tracker(simulator)
    s = stamp(1.0)
    tracker.on_write_acked("k", s, ack_time=0.0, replica_set=["a", "b"])
    tracker.on_replica_applied("k", s, "a", 0.1, False)
    simulator.run_until(200.0)
    assert tracker.windows_expired == 1
    assert tracker.open_windows == 0
    # The censored sample is at least MAX_OPEN_AGE.
    assert tracker.window_percentile(99) >= 50.0


def test_marks_are_forgotten_a_retention_after_the_keys_last_apply(monkeypatch):
    monkeypatch.setattr(window_tracker, "EARLY_APPLY_RETENTION", 40.0)
    monkeypatch.setattr(window_tracker, "EXPIRY_SCAN_INTERVAL", 10.0)
    simulator = Simulator(seed=0)
    tracker = make_tracker(simulator)
    for node_id in ("a", "b", "c"):
        tracker.on_replica_applied("cold", stamp(0.0), node_id, 0.0, False)
    simulator.run_until(30.0)
    # One replica of "warm" applied long ago, another just now: the key's
    # marks stay together for as long as any apply of it is recent.
    tracker.on_replica_applied("warm", stamp(1.0, 1), "a", 1.0, False)
    tracker.on_replica_applied("warm", stamp(1.0, 1), "b", 30.0, False)
    simulator.run_until(55.0)
    assert set(tracker._marks) == set(tracker._last_apply) == {"warm"}
    assert set(tracker._marks["warm"]) == {"a", "b"}
    # An ack inside the retention still finds both applies.
    tracker.on_write_acked("warm", stamp(1.0, 1), ack_time=55.0, replica_set=["a", "b"])
    assert tracker.zero_windows == 1
    simulator.run_until(85.0)
    assert tracker._marks == {} and tracker._last_apply == {}


def test_percentiles_and_stats_shape():
    simulator = Simulator(seed=0)
    tracker = make_tracker(simulator)
    for i in range(10):
        s = stamp(float(i), i)
        tracker.on_write_acked("k%d" % i, s, ack_time=float(i), replica_set=["a"])
        tracker.on_replica_applied("k%d" % i, s, "a", float(i) + 0.1 * i, False)
    stats = tracker.stats()
    assert stats["windows_closed"] == 10
    assert stats["p95_window"] >= stats["mean_window"]
    assert tracker.window_percentile(50) > 0.0


# ----------------------------------------------------------------------
# StalenessObserver
# ----------------------------------------------------------------------
def read_result(time, stale, staleness=0.0, probe=False, success=True):
    return ReadResult(
        key="k",
        operation=OperationType.PROBE_READ if probe else OperationType.READ,
        issued_at=time,
        completed_at=time + 0.01,
        success=success,
        stale=stale,
        staleness=staleness,
    )


def test_staleness_observer_counts_only_successful_production_reads():
    observer = StalenessObserver()
    observer.on_operation_completed(read_result(1.0, stale=False))
    observer.on_operation_completed(read_result(2.0, stale=True, staleness=0.5))
    observer.on_operation_completed(read_result(3.0, stale=True, staleness=1.5, probe=True))
    observer.on_operation_completed(read_result(4.0, stale=True, success=False))
    observer.on_operation_completed(
        WriteResult(key="k", operation=OperationType.WRITE, issued_at=0, completed_at=1, success=True)
    )
    assert observer.reads_observed == 2
    assert observer.stale_reads == 1
    assert observer.stale_fraction == pytest.approx(0.5)


def test_staleness_snapshot_statistics():
    observer = StalenessObserver()
    for i in range(10):
        observer.on_operation_completed(read_result(float(i), stale=i % 2 == 0, staleness=0.2 * i))
    snapshot = observer.snapshot()
    assert snapshot.reads == 10
    assert snapshot.stale_reads == 5
    assert snapshot.stale_fraction == pytest.approx(0.5)
    assert snapshot.max_staleness == pytest.approx(1.6)
    assert snapshot.as_dict()["stale_fraction"] == pytest.approx(0.5)


def test_staleness_snapshot_since_filter():
    observer = StalenessObserver()
    observer.on_operation_completed(read_result(1.0, stale=True, staleness=1.0))
    observer.on_operation_completed(read_result(10.0, stale=False))
    snapshot = observer.snapshot(since=5.0)
    assert snapshot.reads == 1
    assert snapshot.stale_reads == 0
