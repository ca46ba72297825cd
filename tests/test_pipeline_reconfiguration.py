"""Mid-run consistency-level changes flowing through the request pipeline.

The controller's main levers are the default read/write consistency levels;
these tests flip them while requests are in flight and assert that the
pipeline-based request path keeps every guarantee the hardcoded coordinator
gave: in-flight operations keep the level they were issued with, new
operations pick up the new level, and hinted handoff and read repair — now
middleware stages — still fire.
"""

from __future__ import annotations

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ConsistencyLevel,
    NodeConfig,
)
import repro.cluster.anti_entropy as anti_entropy
from repro.middleware import DEFAULT_REQUEST_PIPELINE
from repro.simulation import Simulator


def make_cluster(simulator, middleware=None):
    config = ClusterConfig(
        initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=500.0)
    )
    return Cluster(simulator, config, middleware=middleware)


def test_inflight_requests_keep_their_level_across_a_switch():
    simulator = Simulator(seed=21)
    cluster = make_cluster(simulator)
    first_batch = []
    for i in range(5):
        cluster.write(f"k{i}", b"v1", on_complete=first_batch.append)
        cluster.read(f"k{i}", on_complete=first_batch.append)
    # Flip both defaults while those ten operations are still in flight.
    cluster.set_write_consistency(ConsistencyLevel.QUORUM)
    cluster.set_read_consistency(ConsistencyLevel.QUORUM)
    second_batch = []
    for i in range(5):
        cluster.write(f"k{i}", b"v2", on_complete=second_batch.append)
        cluster.read(f"k{i}", on_complete=second_batch.append)
    simulator.run_until(simulator.now + 5.0)

    assert len(first_batch) == 10 and len(second_batch) == 10
    assert all(result.success for result in first_batch + second_batch)
    assert {result.consistency_level for result in first_batch} == {ConsistencyLevel.ONE}
    assert {result.consistency_level for result in second_batch} == {
        ConsistencyLevel.QUORUM
    }
    # QUORUM operations waited for two replicas.
    assert all(result.replicas_responded >= 2 for result in second_batch)


def test_hinted_handoff_fires_as_middleware_after_cl_switch():
    simulator = Simulator(seed=22)
    cluster = make_cluster(simulator)
    handoff_stage = cluster.pipeline.get("hinted-handoff")
    assert handoff_stage is not None
    assert handoff_stage._manager is cluster.hinted_handoff

    victim = cluster.node_ids()[0]
    cluster.crash_node(victim)
    simulator.run_until(simulator.now + 30.0)  # let failure detection settle

    # Writes land while a replica is down; switch the level mid-stream.
    results = []
    cluster.write("hot-key", b"v1", on_complete=results.append)
    cluster.set_write_consistency(ConsistencyLevel.QUORUM)
    cluster.write("hot-key", b"v2", on_complete=results.append)
    simulator.run_until(simulator.now + 2.0)
    assert all(result.success for result in results)
    assert cluster.hinted_handoff.hints_stored >= 1
    assert cluster.coordinator.hinted_writes >= 1

    # Recovery replays the hints (the replay path is unchanged).
    cluster.recover_node(victim)
    simulator.run_until(simulator.now + 30.0)
    assert cluster.hinted_handoff.hints_replayed >= 1
    versions = cluster.replica_versions("hot-key")
    assert versions.get(victim) is not None


def test_read_repair_fires_as_middleware_after_cl_switch(monkeypatch):
    simulator = Simulator(seed=23)
    # No hinted-handoff stage and no anti-entropy round within the test, so
    # a crashed replica stays stale until read repair — the middleware under
    # test — fixes it.
    monkeypatch.setattr(anti_entropy, "INTERVAL", 1e6)
    cluster = make_cluster(
        simulator,
        middleware=[name for name in DEFAULT_REQUEST_PIPELINE if name != "hinted-handoff"],
    )
    repair_stage = cluster.pipeline.get("read-repair")
    assert repair_stage is not None
    assert repair_stage._repairer is cluster.read_repairer

    seed_results = []
    cluster.write("k", b"old", on_complete=seed_results.append)
    simulator.run_until(simulator.now + 5.0)
    assert seed_results[0].success

    victim = cluster.node_ids()[0]
    cluster.crash_node(victim)
    simulator.run_until(simulator.now + 30.0)
    miss_results = []
    cluster.write("k", b"new", on_complete=miss_results.append)
    simulator.run_until(simulator.now + 2.0)
    assert miss_results[0].success

    cluster.recover_node(victim)
    simulator.run_until(simulator.now + 30.0)
    # The recovered replica is stale; an ALL read (switched mid-run from the
    # ONE default) sees the divergence and repairs it through the pipeline.
    cluster.set_read_consistency(ConsistencyLevel.ALL)
    mismatches = cluster.read_repairer.mismatches_detected
    read_results = []
    cluster.read("k", on_complete=read_results.append)
    simulator.run_until(simulator.now + 2.0)
    assert read_results[0].success
    assert read_results[0].value == b"new"
    assert cluster.read_repairer.mismatches_detected == mismatches + 1
    assert cluster.read_repairer.repairs_sent >= 1

    simulator.run_until(simulator.now + 5.0)
    versions = cluster.replica_versions("k")
    assert versions.get(victim) is not None
    assert versions[victim].value == b"new"
