"""Tests for fault injection and its consistency consequences."""

from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ClusterListener,
    ConfigurationError,
    ConsistencyLevel,
    FaultInjector,
    FaultSpec,
    NodeConfig,
    NodeState,
    UnknownNodeError,
)
from repro.simulation import Simulator


def make_setup(seed=1, nodes=3, rf=3, middleware=None):
    simulator = Simulator(seed=seed)
    cluster = Cluster(
        simulator,
        ClusterConfig(
            initial_nodes=nodes,
            replication_factor=rf,
            node=NodeConfig(ops_capacity=500.0),
        ),
        middleware=middleware,
    )
    injector = FaultInjector(simulator, cluster)
    return simulator, cluster, injector


class TopologyLog(ClusterListener):
    def __init__(self):
        self.changes = []

    def on_topology_changed(self, change):
        self.changes.append(change)


def test_scheduled_crash_and_recovery():
    simulator, cluster, injector = make_setup()
    node_id = cluster.node_ids()[0]
    event = injector.crash_node(node_id, at=10.0, duration=20.0)
    simulator.run_until(15.0)
    assert not cluster.nodes[node_id].is_up
    simulator.run_until(40.0)
    assert cluster.nodes[node_id].is_up
    assert event.end_time == 30.0


def test_crash_without_recovery_stays_down():
    simulator, cluster, injector = make_setup()
    node_id = cluster.node_ids()[1]
    injector.crash_node(node_id, at=5.0)
    simulator.run_until(100.0)
    assert not cluster.nodes[node_id].is_up


def test_partition_installed_and_healed():
    simulator, cluster, injector = make_setup()
    nodes = list(cluster.node_ids())
    injector.partition([nodes[0]], nodes[1:], at=10.0, duration=20.0)
    simulator.run_until(15.0)
    assert cluster.network.is_partitioned(nodes[0], nodes[1])
    simulator.run_until(40.0)
    assert not cluster.network.is_partitioned(nodes[0], nodes[1])


def test_isolate_node_partitions_it_from_everyone():
    simulator, cluster, injector = make_setup()
    nodes = list(cluster.node_ids())
    injector.isolate_node(nodes[2], at=5.0)
    simulator.run_until(6.0)
    assert cluster.network.is_partitioned(nodes[2], nodes[0])
    assert cluster.network.is_partitioned(nodes[2], nodes[1])
    assert not cluster.network.is_partitioned(nodes[0], nodes[1])


def test_summary_lists_all_injected_faults():
    simulator, cluster, injector = make_setup()
    nodes = list(cluster.node_ids())
    injector.crash_node(nodes[0], at=1.0, duration=2.0)
    injector.partition([nodes[0]], [nodes[1]], at=5.0)
    summary = injector.summary()
    assert len(summary) == 2
    assert summary[0]["kind"] == "node_crash"
    assert summary[1]["kind"] == "partition"


def test_writes_fail_under_majority_crash_with_quorum():
    simulator, cluster, injector = make_setup()
    cluster.preload({"k": b"v"})
    nodes = list(cluster.node_ids())
    injector.crash_node(nodes[0], at=5.0)
    injector.crash_node(nodes[1], at=5.0)
    simulator.run_until(30.0)
    results = []
    cluster.write("k", b"new", on_complete=results.append, consistency_level=ConsistencyLevel.QUORUM)
    simulator.run_until(35.0)
    assert len(results) == 1
    assert not results[0].success


def test_crash_during_traffic_creates_inconsistency_then_recovery_heals():
    simulator, cluster, injector = make_setup(seed=3)
    cluster.preload({f"user{i}": b"v" for i in range(20)})
    nodes = list(cluster.node_ids())
    injector.crash_node(nodes[2], at=10.0, duration=60.0)

    write_results = []
    for i in range(20):
        simulator.schedule(
            20.0 + i * 0.5,
            lambda i=i: cluster.write(f"user{i}", b"updated", on_complete=write_results.append),
        )
    simulator.run_until(200.0)
    assert all(r.success for r in write_results)
    # After recovery and hint replay / anti-entropy, the recovered node holds
    # the updated value for the keys it replicates.
    node = cluster.nodes[nodes[2]]
    stale = 0
    for i in range(20):
        key = f"user{i}"
        if nodes[2] in cluster.ring.preference_list(key, 3):
            version = node.storage.get(key)
            if version is None or version.value != b"updated":
                stale += 1
    assert stale <= 2


# ----------------------------------------------------------------------
# Recovery interleavings: faults composed with in-flight work
# ----------------------------------------------------------------------
def test_crash_during_inflight_hedged_read_completes():
    """A replica crashing mid-read must not strand the hedged request path."""
    from repro.middleware import HEDGED_PIPELINE

    simulator, cluster, injector = make_setup(seed=5, middleware=HEDGED_PIPELINE)
    cluster.preload({f"key{i}": b"v" for i in range(10)})
    nodes = list(cluster.node_ids())
    injector.crash_node(nodes[0], at=10.0, duration=30.0)

    results = []
    # Reads issued just before and exactly at the crash instant are in
    # flight (fanout scheduled, responses pending) when the node dies.
    for i in range(10):
        simulator.schedule(
            9.95 + i * 0.01,
            lambda i=i: cluster.read(f"key{i}", on_complete=results.append),
        )
    simulator.run_until(60.0)
    # Every read terminates — the arm/cancel bookkeeping of hedged requests
    # survives the replica set changing underneath it.
    assert len(results) == 10
    assert all(r.success for r in results)


def test_recover_then_handoff_replay_preserves_newest_version():
    """Hint replay after recovery must not clobber writes newer than the hint."""
    simulator, cluster, injector = make_setup(seed=7)
    cluster.preload({"acct": b"v0"})
    nodes = list(cluster.node_ids())
    injector.crash_node(nodes[1], at=10.0, duration=30.0)

    results = []
    # v1 lands while the node is down (stored as a hint for it) ...
    simulator.schedule(
        20.0, lambda: cluster.write("acct", b"v1", on_complete=results.append)
    )
    # ... and v2 lands right after recovery, racing the hint replay.
    simulator.schedule(
        40.5, lambda: cluster.write("acct", b"v2", on_complete=results.append)
    )
    simulator.run_until(300.0)
    assert all(r.success for r in results)
    version = cluster.nodes[nodes[1]].storage.get("acct")
    assert version is not None
    assert version.value == b"v2"


def test_degrade_crash_recover_keeps_fault_factor():
    """A fail-slow factor applied before a crash survives the recovery."""
    simulator, cluster, injector = make_setup()
    node_id = cluster.node_ids()[0]
    injector.degrade_node(node_id, at=5.0, factor=0.5, duration=100.0)
    injector.crash_node(node_id, at=20.0, duration=20.0)
    simulator.run_until(50.0)
    node = cluster.nodes[node_id]
    assert node.is_up
    server = node.server
    assert server.effective_rate == pytest.approx(server.service_rate * server.speed_factor * 0.5)
    simulator.run_until(120.0)
    assert server.effective_rate == pytest.approx(server.service_rate * server.speed_factor)


def test_overlapping_partitions_heal_independently():
    """Healing one partition window must leave the other still severed."""
    simulator, cluster, injector = make_setup()
    nodes = list(cluster.node_ids())
    injector.partition([nodes[0]], [nodes[1]], at=10.0, duration=50.0)
    injector.partition([nodes[0]], [nodes[2]], at=20.0, duration=20.0)
    simulator.run_until(30.0)
    assert cluster.network.is_partitioned(nodes[0], nodes[1])
    assert cluster.network.is_partitioned(nodes[0], nodes[2])
    # The short window healed at t=40; the long one is still open.
    simulator.run_until(45.0)
    assert cluster.network.is_partitioned(nodes[0], nodes[1])
    assert not cluster.network.is_partitioned(nodes[0], nodes[2])
    simulator.run_until(70.0)
    assert not cluster.network.is_partitioned(nodes[0], nodes[1])


def test_same_pair_partitioned_twice_stays_severed_until_both_heal():
    """Two partitions covering one pair refcount: one heal is not enough."""
    simulator, cluster, injector = make_setup()
    nodes = list(cluster.node_ids())
    injector.partition([nodes[0]], [nodes[1]], at=10.0, duration=20.0)
    injector.partition([nodes[0]], [nodes[1], nodes[2]], at=15.0, duration=40.0)
    simulator.run_until(35.0)  # first window healed at t=30
    assert cluster.network.is_partitioned(nodes[0], nodes[1])
    simulator.run_until(60.0)  # second window healed at t=55
    assert not cluster.network.is_partitioned(nodes[0], nodes[1])


def test_removed_node_is_not_resurrected_by_a_late_crash_recover_pair():
    # A FaultPlan resolves node ids up front, so a crash/recover pair can
    # fire after the autoscaler has decommissioned its target.
    simulator, cluster, injector = make_setup(nodes=5)
    log = TopologyLog()
    cluster.add_listener(log)
    node_id = max(cluster.node_ids())
    injector.crash_node(node_id, at=60.0, duration=10.0)
    removed, _ = cluster.remove_node()
    assert removed == node_id
    simulator.run_until(59.0)
    node = cluster.nodes[node_id]
    assert node.state is NodeState.REMOVED
    notified = len(log.changes)

    simulator.run_until(80.0)

    assert node.state is NodeState.REMOVED
    assert not node.is_up and not node.serves_requests
    assert node_id not in cluster.serving_node_ids()
    assert node_id not in cluster.node_ids()
    assert node_id not in cluster.membership._agents
    assert len(log.changes) == notified


# ----------------------------------------------------------------------
# A fault's window must be a real interval: finite start, positive length
# ----------------------------------------------------------------------
_BAD_DURATIONS = (-3.0, 0.0, float("nan"), float("inf"))
_BAD_TIMES = (float("nan"), float("inf"), float("-inf"), -1.0)


def test_fault_spec_keeps_accepting_an_open_ended_fault():
    assert FaultSpec(kind="crash", at=0.0).duration is None
    assert FaultSpec(kind="crash", at=0.0, duration=1e-9).duration == 1e-9


def _imperative_calls(injector, nodes, **window):
    return (
        lambda: injector.crash_node(nodes[0], **window),
        lambda: injector.degrade_node(nodes[0], factor=0.5, **window),
        lambda: injector.flaky_link(nodes[0], nodes[1], **window),
        lambda: injector.partition([nodes[0]], nodes[1:], **window),
        lambda: injector.isolate_node(nodes[0], **window),
    )


@pytest.mark.parametrize("duration", _BAD_DURATIONS)
def test_injector_methods_reject_a_bad_duration_and_schedule_nothing(duration):
    # A negative duration used to schedule the heal *before* the fault, which
    # then never healed: a silently different experiment.
    simulator, cluster, injector = make_setup()
    pending = simulator.pending_events
    for call in _imperative_calls(
        injector, list(cluster.node_ids()), at=5.0, duration=duration
    ):
        with pytest.raises(ConfigurationError, match="^FaultInjector.duration must be "):
            call()
    assert injector.events == [] and simulator.pending_events == pending


@pytest.mark.parametrize("at", _BAD_TIMES)
def test_injector_methods_reject_a_bad_start_and_schedule_nothing(at):
    simulator, cluster, injector = make_setup()
    pending = simulator.pending_events
    for call in _imperative_calls(injector, list(cluster.node_ids()), at=at):
        with pytest.raises(ConfigurationError, match="^FaultInjector.at must be "):
            call()
    assert injector.events == [] and simulator.pending_events == pending


# ----------------------------------------------------------------------
# A fault is checked when it is declared, not when it fires
# ----------------------------------------------------------------------
_NAN, _INF = float("nan"), float("inf")

# (name, error, what the message names, call on (injector, nodes)).  Each of
# these used to be accepted and to raise out of ``run_until`` at t=5, from the
# check in ``NetworkModel.set_link_fault`` or ``Cluster.crash_node``, or never.
_BAD_DECLARATIONS = (
    ("drop above one", ConfigurationError, "FaultInjector.drop_probability",
     lambda i, n: i.flaky_link(n[0], n[1], at=5.0, drop_probability=1.5)),
    ("drop nan", ConfigurationError, "FaultInjector.drop_probability",
     lambda i, n: i.flaky_link(n[0], n[1], at=5.0, drop_probability=_NAN)),
    ("delay negative", ConfigurationError, "FaultInjector.extra_delay",
     lambda i, n: i.flaky_link(n[0], n[1], at=5.0, extra_delay=-0.001)),
    ("delay nan", ConfigurationError, "FaultInjector.extra_delay",
     lambda i, n: i.flaky_link(n[0], n[1], at=5.0, extra_delay=_NAN)),
    ("delay inf", ConfigurationError, "FaultInjector.extra_delay",
     lambda i, n: i.flaky_link(n[0], n[1], at=5.0, extra_delay=_INF)),
    ("link to itself", ValueError, "distinct",
     lambda i, n: i.flaky_link(n[0], n[0], at=5.0)),
    ("downtime inf", ConfigurationError, "FaultInjector.downtime",
     lambda i, n: i.rolling_restart(at=5.0, downtime=_INF)),
    ("downtime nan", ConfigurationError, "FaultInjector.downtime",
     lambda i, n: i.rolling_restart(at=5.0, downtime=_NAN)),
    ("settle nan", ConfigurationError, "FaultInjector.settle",
     lambda i, n: i.rolling_restart(at=5.0, settle=_NAN)),
    ("settle inf", ConfigurationError, "FaultInjector.settle",
     lambda i, n: i.rolling_restart(at=5.0, settle=_INF)),
    # Used to leave its own ``rolling_restart`` record behind in ``events``.
    ("restart at nan", ConfigurationError, "FaultInjector.at",
     lambda i, n: i.rolling_restart(at=_NAN)),
    ("crash unknown", UnknownNodeError, "nope",
     lambda i, n: i.crash_node("nope", at=5.0)),
    ("degrade unknown", UnknownNodeError, "nope",
     lambda i, n: i.degrade_node("nope", at=5.0, factor=0.5)),
    ("link unknown", UnknownNodeError, "nope",
     lambda i, n: i.flaky_link(n[0], "nope", at=5.0)),
    ("partition unknown", UnknownNodeError, "nope",
     lambda i, n: i.partition([n[0]], [n[1], "nope"], at=5.0)),
    ("isolate unknown", UnknownNodeError, "nope",
     lambda i, n: i.isolate_node("nope", at=5.0)),
    ("restart unknown", UnknownNodeError, "nope",
     lambda i, n: i.rolling_restart(at=5.0, node_ids=[n[0], "nope"])),
)


@pytest.mark.parametrize(
    "error, names, call",
    [case[1:] for case in _BAD_DECLARATIONS],
    ids=[case[0] for case in _BAD_DECLARATIONS],
)
def test_a_bad_fault_is_refused_when_declared_and_schedules_nothing(error, names, call):
    simulator, cluster, injector = make_setup()
    pending = simulator.pending_events
    with pytest.raises(error, match=names):
        call(injector, list(cluster.node_ids()))
    assert injector.events == [] and simulator.pending_events == pending
    simulator.run_until(10.0)  # and nothing is left to raise at t=5


def test_a_node_removed_after_the_declaration_is_still_a_known_node():
    # Declared while the node is a member, fires after it was decommissioned:
    # that stays a no-op at fire time, not an error at either end.
    simulator, cluster, injector = make_setup(nodes=5)
    node_id = max(cluster.node_ids())
    cluster.remove_node()
    simulator.run_until(200.0)
    injector.crash_node(node_id, at=210.0, duration=5.0)
    simulator.run_until(230.0)
    assert cluster.nodes[node_id].state is NodeState.REMOVED
