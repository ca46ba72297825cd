"""Integration-style tests for the request coordinator through the cluster API."""

from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ClusterListener,
    ConsistencyLevel,
    NodeConfig,
    OperationType,
    ReadResult,
    WriteResult,
)
from repro.simulation import Simulator


def make_cluster(simulator, nodes=3, rf=3, read_cl=ConsistencyLevel.ONE, write_cl=ConsistencyLevel.ONE, **node_overrides):
    node_defaults = dict(ops_capacity=500.0)
    node_defaults.update(node_overrides)
    config = ClusterConfig(
        initial_nodes=nodes,
        replication_factor=rf,
        read_consistency=read_cl,
        write_consistency=write_cl,
        node=NodeConfig(**node_defaults),
    )
    return Cluster(simulator, config)


def write_sync(simulator, cluster, key, value=b"v", until=None, **kwargs):
    results = []
    cluster.write(key, value, on_complete=results.append, **kwargs)
    simulator.run_until(until if until is not None else simulator.now + 2.0)
    return results[0]


def read_sync(simulator, cluster, key, **kwargs):
    results = []
    cluster.read(key, on_complete=results.append, **kwargs)
    simulator.run_until(simulator.now + 2.0)
    return results[0]


def test_write_then_read_returns_value():
    simulator = Simulator(seed=1)
    cluster = make_cluster(simulator)
    write_result = write_sync(simulator, cluster, "user1", b"hello")
    assert write_result.success
    assert write_result.version_timestamp is not None
    read_result = read_sync(simulator, cluster, "user1")
    assert read_result.success
    assert read_result.value == b"hello"
    assert read_result.version_timestamp == pytest.approx(write_result.version_timestamp)


def test_read_of_missing_key_succeeds_with_no_value():
    simulator = Simulator(seed=1)
    cluster = make_cluster(simulator)
    result = read_sync(simulator, cluster, "never-written")
    assert result.success
    assert result.value is None


def test_write_latency_grows_with_stricter_consistency():
    simulator = Simulator(seed=2)
    cluster = make_cluster(simulator)
    one = write_sync(simulator, cluster, "k1", consistency_level=ConsistencyLevel.ONE)
    all_levels = [
        write_sync(simulator, cluster, f"k-all-{i}", consistency_level=ConsistencyLevel.ALL)
        for i in range(20)
    ]
    ones = [
        write_sync(simulator, cluster, f"k-one-{i}", consistency_level=ConsistencyLevel.ONE)
        for i in range(20)
    ]
    mean_all = sum(r.latency for r in all_levels) / len(all_levels)
    mean_one = sum(r.latency for r in ones) / len(ones)
    assert one.success
    assert mean_all > mean_one


def test_newest_version_wins_on_read():
    simulator = Simulator(seed=3)
    cluster = make_cluster(simulator)
    write_sync(simulator, cluster, "k", b"old")
    write_sync(simulator, cluster, "k", b"new")
    result = read_sync(simulator, cluster, "k", consistency_level=ConsistencyLevel.ALL)
    assert result.value == b"new"


def test_all_replicas_eventually_receive_the_write():
    simulator = Simulator(seed=4)
    cluster = make_cluster(simulator)
    write_sync(simulator, cluster, "k", b"payload")
    simulator.run_until(simulator.now + 5.0)
    versions = cluster.replica_versions("k")
    assert len(versions) == 3
    assert all(v is not None and v.value == b"payload" for v in versions.values())


def test_unavailable_when_too_few_live_replicas():
    simulator = Simulator(seed=5)
    cluster = make_cluster(simulator, nodes=3, rf=3)
    write_sync(simulator, cluster, "k", b"v")
    # Crash two replicas; CL=ALL can no longer be met.
    node_ids = list(cluster.node_ids())
    cluster.crash_node(node_ids[0])
    cluster.crash_node(node_ids[1])
    simulator.run_until(simulator.now + 30.0)  # let failure detection settle
    result = write_sync(simulator, cluster, "k", b"v2", consistency_level=ConsistencyLevel.ALL)
    assert not result.success
    assert "unavailable" in (result.error or "")
    assert cluster.coordinator.unavailable_errors >= 1


def test_write_at_one_still_succeeds_with_replicas_down():
    simulator = Simulator(seed=6)
    cluster = make_cluster(simulator, nodes=3, rf=3)
    node_ids = list(cluster.node_ids())
    cluster.crash_node(node_ids[0])
    simulator.run_until(simulator.now + 30.0)
    result = write_sync(simulator, cluster, "k", b"v", consistency_level=ConsistencyLevel.ONE)
    assert result.success
    # The down replica should have received a hint.
    assert cluster.hinted_handoff.pending + cluster.hinted_handoff.hints_replayed >= 1


def test_no_serving_nodes_fails_immediately():
    simulator = Simulator(seed=7)
    cluster = make_cluster(simulator, nodes=2, rf=2)
    for node_id in list(cluster.node_ids()):
        cluster.crash_node(node_id)
    results = []
    cluster.write("k", b"v", on_complete=results.append)
    cluster.read("k", on_complete=results.append)
    assert len(results) == 2
    assert not results[0].success
    assert not results[1].success


def test_operation_results_carry_metadata():
    simulator = Simulator(seed=8)
    cluster = make_cluster(simulator)
    result = write_sync(simulator, cluster, "k", b"v", consistency_level=ConsistencyLevel.QUORUM)
    assert result.consistency_level is ConsistencyLevel.QUORUM
    assert result.replicas_contacted == 3
    assert result.replicas_responded >= 2
    assert result.operation is OperationType.WRITE


def test_listener_receives_completed_operations(small_cluster, simulator):
    completed = []

    class Listener:
        def on_write_acked(self, *args):
            pass

        def on_replica_applied(self, *args):
            pass

        def on_operation_completed(self, result):
            completed.append(result)

        def on_topology_changed(self, change):
            pass

        def on_reconfiguration(self, change):
            pass

    small_cluster.add_listener(Listener())
    small_cluster.write("k", b"v")
    small_cluster.read("k")
    simulator.run_until(2.0)
    kinds = {type(result) for result in completed}
    assert WriteResult in kinds
    assert ReadResult in kinds


def test_listeners_are_called_only_for_hooks_they_override_in_registration_order(
    small_cluster, simulator, monkeypatch
):
    def inherited_no_op_dispatched(self, *args):
        raise AssertionError("the cluster called a hook the listener does not override")

    for hook in (
        "on_write_acked",
        "on_replica_applied",
        "on_operation_completed",
        "on_reconfiguration",
    ):
        monkeypatch.setattr(ClusterListener, hook, inherited_no_op_dispatched)
    calls = []

    class TopologyOnly(ClusterListener):
        def on_topology_changed(self, change):
            calls.append(("on_topology_changed", "topology-only"))

    class Everything(ClusterListener):
        def __init__(self, name):
            self.name = name

        def on_write_acked(self, *args):
            calls.append(("on_write_acked", self.name))

        def on_replica_applied(self, *args):
            calls.append(("on_replica_applied", self.name))

        def on_operation_completed(self, result):
            calls.append(("on_operation_completed", self.name))

        def on_topology_changed(self, change):
            calls.append(("on_topology_changed", self.name))

        def on_reconfiguration(self, change):
            calls.append(("on_reconfiguration", self.name))

    small_cluster.add_listener(Everything("first"))
    small_cluster.add_listener(TopologyOnly())
    small_cluster.add_listener(Everything("second"))
    small_cluster.write("k", b"v")
    small_cluster.read("k")
    small_cluster.set_read_consistency(ConsistencyLevel.QUORUM)
    small_cluster.crash_node(small_cluster.node_ids()[0])
    simulator.run_until(2.0)

    by_hook = {}
    for hook, name in calls:
        by_hook.setdefault(hook, []).append(name)
    assert by_hook.pop("on_topology_changed") == ["first", "topology-only", "second"]
    assert sorted(by_hook) == [
        "on_operation_completed",
        "on_reconfiguration",
        "on_replica_applied",
        "on_write_acked",
    ]
    for hook, names in by_hook.items():
        assert names == ["first", "second"] * (len(names) // 2), hook


def test_replica_applies_go_straight_to_a_lone_listener_and_fan_out_to_several(
    small_cluster, simulator
):
    from repro.cluster import VersionStamp, VersionedValue
    from repro.consistency import InconsistencyWindowTracker

    coordinator = small_cluster.coordinator
    calls = []

    class Applies(ClusterListener):
        def __init__(self, name):
            self.name = name

        def on_replica_applied(self, key, stamp, node_id, time, background):
            calls.append((self.name, key, background))

    class Tracker(InconsistencyWindowTracker):
        def on_replica_applied(self, key, stamp, node_id, time, background):
            calls.append(("tracker", key, background))
            super().on_replica_applied(key, stamp, node_id, time, background)

    class CompletionsOnly(ClusterListener):
        def on_operation_completed(self, result):
            pass

        def __getattribute__(self, name):
            if name == "on_replica_applied":
                raise AssertionError("asked for a hook the listener does not override")
            return super().__getattribute__(name)

    def background_write(key):
        version = VersionedValue(VersionStamp(simulator.now, 10_000), b"repair", 0)
        nodes = small_cluster.node_ids()
        assert coordinator.background_write(nodes[0], key, version, source=nodes[1])

    # Nobody listens: no callback at all, and applies are not reported.
    assert coordinator.on_replica_applied is None
    small_cluster.add_listener(CompletionsOnly())
    assert coordinator.on_replica_applied is None
    small_cluster.write("unheard", b"v")
    background_write("unheard")
    simulator.run_until(1.0)

    # One overrider: the coordinator calls the tracker's own method.
    tracker = Tracker(simulator)
    small_cluster.add_listener(tracker)
    assert coordinator.on_replica_applied == tracker.on_replica_applied
    assert coordinator.on_replica_applied.__self__ is tracker
    # A listener without the hook does not undo the binding.
    small_cluster.add_listener(CompletionsOnly())
    assert coordinator.on_replica_applied.__self__ is tracker
    small_cluster.write("k", b"v")
    simulator.run_until(2.0)
    assert calls == [("tracker", "k", False)] * 3
    assert tracker.windows_closed == 1 and tracker.open_windows == 0

    # A background write already on its way when the second and third
    # overriders register is reported to all three when it lands.
    del calls[:]
    background_write("in-flight")
    small_cluster.add_listener(Applies("second"))
    small_cluster.add_listener(Applies("third"))
    simulator.run_until(3.0)
    in_order = ("tracker", "second", "third")
    assert calls == [(name, "in-flight", True) for name in in_order]

    del calls[:]
    small_cluster.write("fanned", b"v")
    simulator.run_until(4.0)
    assert calls == [(name, "fanned", False) for name in in_order] * 3
    assert tracker.windows_closed == 2
    del calls[:]
    background_write("fanned")
    simulator.run_until(5.0)
    assert calls == [(name, "fanned", True) for name in in_order]


def test_probe_operations_are_flagged():
    simulator = Simulator(seed=9)
    cluster = make_cluster(simulator)
    results = []
    cluster.write("probe", b"p", on_complete=results.append, operation=OperationType.PROBE_WRITE)
    simulator.run_until(2.0)
    assert results[0].operation.is_probe
