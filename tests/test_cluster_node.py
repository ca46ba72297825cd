"""Unit tests for the storage node model."""

from __future__ import annotations

import pytest

import repro.cluster.node as node_module
from repro.cluster import NodeConfig, NodeState, StorageNode, VersionStamp, VersionedValue
from repro.simulation import Simulator


@pytest.fixture
def make_node(monkeypatch):
    """Builds a 100 ops/s node without service noise, with the named
    constants of the node module (``mutation_timeout=0.05`` patches
    ``MUTATION_TIMEOUT``) replaced for the test."""

    def make(simulator, **constants):
        for name, value in dict(service_cv=0.0, **constants).items():
            monkeypatch.setattr(node_module, name.upper(), value)
        return StorageNode(simulator, "node-1", NodeConfig(ops_capacity=100.0))

    return make


def version(ts, seq=0, size=100):
    return VersionedValue(stamp=VersionStamp(ts, seq), value=b"x", write_id=1, size=size)


def test_replica_write_applies_after_service_delay(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator)
    responses = []
    node.replica_write("k", version(1.0), responses.append)
    simulator.run_until(1.0)
    assert len(responses) == 1
    assert responses[0].applied
    assert responses[0].node_id == "node-1"
    assert responses[0].applied_at == pytest.approx(0.012, rel=0.05)
    assert "k" in node.storage


def test_replica_read_returns_stored_version(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator)
    stored = version(1.0)
    node.storage.apply("k", stored)
    responses = []
    node.replica_read("k", responses.append)
    simulator.run_until(1.0)
    assert responses[0].version is stored


def test_replica_read_missing_key_returns_none(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator)
    responses = []
    node.replica_read("missing", responses.append)
    simulator.run_until(1.0)
    assert responses[0].version is None


def test_down_node_ignores_requests(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator)
    node.mark_down()
    responses = []
    node.replica_write("k", version(1.0), responses.append)
    node.replica_read("k", responses.append)
    simulator.run_until(1.0)
    assert responses == []
    assert not node.is_up
    assert not node.serves_requests


def test_recovered_node_serves_again(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator)
    node.mark_down()
    node.mark_up()
    assert node.is_up
    assert node.state is NodeState.NORMAL


def test_mutation_dropping_under_backlog(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator, mutation_timeout=0.05)
    applied = []
    # Flood the queue: each write costs ~12 ms, so after ~5 the estimated
    # wait exceeds 50 ms and further foreground writes are dropped.
    for i in range(40):
        node.replica_write(f"k{i}", version(1.0, seq=i), lambda r: applied.append(r))
    assert node.dropped_mutations > 0
    simulator.run_until(5.0)
    assert len(applied) + node.dropped_mutations == 40


def test_background_writes_are_never_dropped(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator, mutation_timeout=0.01)
    applied = []
    for i in range(30):
        node.replica_write(
            f"k{i}", version(1.0, seq=i), lambda r: applied.append(r), background=True
        )
    simulator.run_until(10.0)
    assert node.dropped_mutations == 0
    assert len(applied) == 30


def test_stream_in_and_out_roundtrip(make_node):
    simulator = Simulator(seed=0)
    source = make_node(simulator)
    target = StorageNode(simulator, "node-2", NodeConfig(ops_capacity=100.0))
    items = {f"k{i}": version(float(i), seq=i) for i in range(10)}
    for key, value in items.items():
        source.storage.apply(key, value)

    received = {}

    def on_out(chunk, _time):
        target.stream_in(chunk, lambda t: received.update(chunk))

    source.stream_out(list(items), on_out)
    simulator.run_until(5.0)
    assert set(received) == set(items)
    for key in items:
        assert key in target.storage


def test_memory_pressure_inflates_demand(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator, memory_capacity_bytes=1000, memory_pressure_threshold=0.5)
    baseline = node.demand_for(1.0)
    node.storage.apply("big", version(1.0, size=900))
    assert node.demand_for(1.0) > baseline


def test_metrics_snapshot_contains_expected_keys(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator)
    node.storage.apply("k", version(1.0))
    metrics = node.metrics()
    for key in (
        "utilization",
        "queue_length",
        "keys",
        "bytes_stored",
        "memory_fraction",
        "dropped_mutations",
        "up",
    ):
        assert key in metrics
    assert metrics["keys"] == 1.0
    assert metrics["up"] == 1.0


def test_utilization_sampling(make_node):
    simulator = Simulator(seed=0)
    node = make_node(simulator)
    for i in range(20):
        node.replica_write(f"k{i}", version(1.0, seq=i), lambda r: None)
    simulator.run_until(0.1)
    utilization = node.sample_utilization()
    assert utilization > 0.5
