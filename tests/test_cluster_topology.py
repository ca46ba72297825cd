"""Integration tests for topology changes: scale out/in, RF changes, faults."""

from __future__ import annotations

import random

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ConfigurationError,
    ConsistencyLevel,
    NodeConfig,
    NodeState,
    TopologyError,
)
from repro.simulation import Simulator


def make_cluster(simulator, nodes=3, rf=2, keys=50):
    config = ClusterConfig(
        initial_nodes=nodes,
        replication_factor=rf,
        node=NodeConfig(ops_capacity=500.0),
    )
    cluster = Cluster(simulator, config)
    if keys:
        cluster.preload({f"user{i}": b"v" for i in range(keys)})
    return cluster


def test_add_node_joins_ring_after_bootstrap():
    simulator = Simulator(seed=1)
    cluster = make_cluster(simulator)
    node_id, session = cluster.add_node()
    assert cluster.nodes[node_id].state.value == "joining"
    simulator.run_until(60.0)
    assert node_id in cluster.ring
    assert cluster.nodes[node_id].state.value == "normal"
    if session is not None:
        assert session.done
        assert session.keys_streamed > 0


def test_new_node_holds_data_for_its_ranges():
    simulator = Simulator(seed=2)
    cluster = make_cluster(simulator, keys=200)
    node_id, _session = cluster.add_node()
    simulator.run_until(120.0)
    node = cluster.nodes[node_id]
    owned = [
        key
        for key in (f"user{i}" for i in range(200))
        if node_id in cluster.ring.preference_list(key, cluster.replication_factor)
    ]
    assert owned, "the new node should own some ranges"
    present = sum(1 for key in owned if key in node.storage)
    assert present >= len(owned) * 0.9


def test_remove_node_streams_data_and_leaves_ring():
    simulator = Simulator(seed=3)
    cluster = make_cluster(simulator, nodes=4, rf=2, keys=200)
    simulator.run_until(5.0)
    removed_id, _session = cluster.remove_node()
    simulator.run_until(120.0)
    assert removed_id not in cluster.ring
    assert cluster.nodes[removed_id].state.value == "removed"
    # Every key still has a full replica set among the remaining nodes.
    missing = 0
    for i in range(200):
        key = f"user{i}"
        versions = cluster.replica_versions(key)
        if not any(v is not None for v in versions.values()):
            missing += 1
    assert missing == 0


def test_remove_below_minimum_is_rejected():
    simulator = Simulator(seed=4)
    cluster = make_cluster(simulator, nodes=3, rf=3)
    with pytest.raises(TopologyError):
        cluster.remove_node()


def test_add_beyond_max_nodes_is_rejected():
    simulator = Simulator(seed=5)
    config = ClusterConfig(initial_nodes=2, replication_factor=2, max_nodes=2)
    cluster = Cluster(simulator, config)
    with pytest.raises(TopologyError):
        cluster.add_node()


def test_replication_factor_increase_fills_new_replicas():
    simulator = Simulator(seed=6)
    cluster = make_cluster(simulator, nodes=4, rf=2, keys=100)
    simulator.run_until(2.0)
    session = cluster.set_replication_factor(3)
    assert cluster.replication_factor == 3
    simulator.run_until(120.0)
    if session is not None:
        assert session.done
    fully_replicated = 0
    for i in range(100):
        versions = cluster.replica_versions(f"user{i}")
        if sum(1 for v in versions.values() if v is not None) >= 3:
            fully_replicated += 1
    assert fully_replicated >= 90


def test_replication_factor_decrease_cleans_up_extra_copies():
    simulator = Simulator(seed=7)
    cluster = make_cluster(simulator, nodes=4, rf=3, keys=100)
    simulator.run_until(2.0)
    cluster.set_replication_factor(2)
    assert cluster.replication_factor == 2
    for i in range(0, 100, 10):
        key = f"user{i}"
        holders = [
            node_id
            for node_id, node in cluster.nodes.items()
            if key in node.storage and node.state.value != "removed"
        ]
        assert len(holders) <= 2


def test_replication_factor_validation():
    simulator = Simulator(seed=8)
    cluster = make_cluster(simulator, nodes=3, rf=2)
    with pytest.raises(ConfigurationError):
        cluster.set_replication_factor(0)
    with pytest.raises(ConfigurationError):
        cluster.set_replication_factor(10)


def test_consistency_level_changes_are_recorded():
    simulator = Simulator(seed=9)
    cluster = make_cluster(simulator)
    cluster.set_read_consistency(ConsistencyLevel.QUORUM)
    cluster.set_write_consistency(ConsistencyLevel.QUORUM)
    # Setting the same level twice is a no-op.
    cluster.set_read_consistency(ConsistencyLevel.QUORUM)
    assert cluster.read_consistency is ConsistencyLevel.QUORUM
    assert cluster.write_consistency is ConsistencyLevel.QUORUM
    actions = [change["action"] for change in cluster.reconfigurations]
    assert actions.count("set_read_consistency") == 1
    assert actions.count("set_write_consistency") == 1


def test_crash_and_recover_node_events():
    simulator = Simulator(seed=10)
    cluster = make_cluster(simulator)
    node_id = cluster.node_ids()[0]
    cluster.crash_node(node_id)
    assert not cluster.nodes[node_id].is_up
    cluster.recover_node(node_id)
    assert cluster.nodes[node_id].is_up
    events = [change["event"] for change in cluster.topology_changes]
    assert "node_down" in events
    assert "node_up" in events


def test_hinted_writes_replayed_after_recovery():
    simulator = Simulator(seed=11)
    cluster = make_cluster(simulator, nodes=3, rf=3, keys=0)
    node_id = cluster.node_ids()[2]
    cluster.crash_node(node_id)
    simulator.run_until(20.0)
    results = []
    for i in range(10):
        cluster.write(f"hinted{i}", b"v", on_complete=results.append)
    simulator.run_until(25.0)
    assert all(r.success for r in results)
    cluster.recover_node(node_id)
    simulator.run_until(120.0)
    node = cluster.nodes[node_id]
    replicated = sum(
        1
        for i in range(10)
        if node_id not in cluster.ring.preference_list(f"hinted{i}", 3) or f"hinted{i}" in node.storage
    )
    assert replicated >= 8


def test_cluster_metrics_and_snapshot_shape():
    simulator = Simulator(seed=12)
    cluster = make_cluster(simulator)
    metrics = cluster.cluster_metrics()
    for key in (
        "node_count",
        "replication_factor",
        "mean_utilization",
        "pending_hints",
        "network_congestion",
        "dropped_mutations",
    ):
        assert key in metrics
    snapshot = cluster.configuration_snapshot()
    assert snapshot["node_count"] == 3
    assert snapshot["read_consistency"] == "ONE"
    node_metrics = cluster.node_metrics()
    assert len(node_metrics) == 3


def test_preload_registers_keys_on_all_replicas():
    simulator = Simulator(seed=13)
    cluster = make_cluster(simulator, keys=0)
    loaded = cluster.preload({f"user{i}": b"x" for i in range(30)})
    assert loaded == 30
    for i in range(30):
        versions = cluster.replica_versions(f"user{i}")
        assert all(v is not None for v in versions.values())


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        ClusterConfig(initial_nodes=2, replication_factor=3).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(initial_nodes=0).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(initial_nodes=5, replication_factor=2, max_nodes=3).validate()


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_state_kept_as_data_always_matches_node_state(seed):
    """Differential oracle for the serving-set cache and the node flags.

    ``serving_node_ids()``, ``node.is_up`` and ``node.serves_requests`` are
    maintained where node state changes; after every step of a random walk
    over the topology levers they must equal a recomputation from
    ``node.state`` alone.
    """
    rng = random.Random(seed)
    simulator = Simulator(seed=seed)
    cluster = make_cluster(simulator, nodes=4, rf=2, keys=40)

    def check(step):
        for node_id, node in cluster.nodes.items():
            state = node.state
            assert node.is_up == (state not in (NodeState.DOWN, NodeState.REMOVED)), (
                step,
                node_id,
            )
            assert node.serves_requests == state.serves_requests, (step, node_id)
        assert cluster.serving_node_ids() == tuple(
            sorted(
                node_id
                for node_id, node in cluster.nodes.items()
                if node.state.serves_requests
            )
        ), step

    def any_node():
        return cluster.nodes[rng.choice(sorted(cluster.nodes))]

    levers = {
        "add": cluster.add_node,
        "remove": cluster.remove_node,
        "crash": lambda: cluster.crash_node(any_node().node_id),
        "recover": lambda: cluster.recover_node(any_node().node_id),
        "mark_down": lambda: any_node().mark_down(),
        "mark_up": lambda: any_node().mark_up(),
        "mark_removed": lambda: any_node().mark_removed(),
        "run": lambda: simulator.run_until(simulator.now + rng.uniform(0.0, 30.0)),
    }
    names = sorted(levers)
    # Crashes and runs dominate; a bare mark_removed (no drain) stays rare.
    weights = [{"mark_removed": 1, "run": 6}.get(name, 3) for name in names]
    check("start")
    seen = set()
    for step in range(80):
        name = rng.choices(names, weights)[0]
        try:
            levers[name]()
        except TopologyError:
            pass  # at min/max size: the lever refused, nothing changed
        seen.add(name)
        check((step, name))
    assert seen == set(names)
    assert any(node.state is NodeState.REMOVED for node in cluster.nodes.values())
