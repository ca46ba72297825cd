"""Sharded parallel mode: planning, merge determinism, the sketches a shard
hands over, and the vectorized open-loop arrival path."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing

import pytest
from test_request_path_digests import crash_and_partition_campaign

from repro.cluster import ClusterListener
from repro.monitoring.percentiles import MergeableHistogramSketch
from repro.runner import Simulation, SimulationConfig
from repro.simulation import sharding
from repro.simulation.sharding import (
    ShardResult,
    merge_shard_results,
    plan_shards,
    run_shard,
    run_sharded,
)
from repro.workload.generator import WorkloadSpec
from repro.workload.load_shapes import ConstantLoad, DiurnalLoad, ScaledLoad
from repro.workload.tenants import TenantSpec


def short_config(**overrides) -> SimulationConfig:
    defaults = dict(
        seed=13,
        duration=90.0,
        label="sharded-test",
        workload=WorkloadSpec(record_count=1_500, load_shape=ConstantLoad(80.0)),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# plan_shards
# ----------------------------------------------------------------------
def test_plan_shards_partitions_records_exactly():
    config = short_config(workload=WorkloadSpec(record_count=1_000))
    for shards in (1, 2, 3, 4, 7):
        plans = plan_shards(config, shards)
        assert len(plans) == shards
        assert sum(plan.workload.record_count for plan in plans) == 1_000
        # Slices differ by at most one record.
        counts = [plan.workload.record_count for plan in plans]
        assert max(counts) - min(counts) <= 1


def test_plan_shards_key_spaces_and_namespaces_are_disjoint():
    plans = plan_shards(short_config(), 4)
    prefixes = {plan.workload.key_prefix for plan in plans}
    namespaces = {plan.stream_namespace for plan in plans}
    labels = {plan.label for plan in plans}
    assert len(prefixes) == len(namespaces) == len(labels) == 4
    assert all(namespace.startswith("shard") for namespace in namespaces)


def test_plan_shards_scales_arrival_share():
    config = short_config(
        workload=WorkloadSpec(record_count=1_000, load_shape=DiurnalLoad(40.0, 120.0))
    )
    plans = plan_shards(config, 4)
    base_rate = config.workload.load_shape.rate(300.0)
    shard_rates = [plan.workload.load_shape.rate(300.0) for plan in plans]
    # The temporal profile is preserved and shares sum to the original rate.
    assert sum(shard_rates) == pytest.approx(base_rate)
    assert all(isinstance(plan.workload.load_shape, ScaledLoad) for plan in plans)


def test_plan_shards_keeps_seed_and_leaves_the_config_alone():
    config = short_config()
    plans = plan_shards(config, 2)
    assert all(plan.seed == config.seed for plan in plans)
    # Planning never mutates the caller's config.
    assert config.stream_namespace == ""


def test_plan_shards_keeps_replica_group_viable():
    config = short_config()
    plans = plan_shards(config, 8)  # more shards than initial nodes
    for plan in plans:
        assert plan.cluster.initial_nodes >= plan.cluster.replication_factor


def test_plan_shards_splits_tenants_with_disjoint_prefixes():
    config = short_config(
        workload=WorkloadSpec(tenants=TenantSpec(tenants=10, records_per_tenant=20))
    )
    plans = plan_shards(config, 3)
    assert [plan.workload.tenants.tenants for plan in plans] == [4, 3, 3]
    prefixes = {plan.workload.tenants.key_prefix for plan in plans}
    assert len(prefixes) == 3


def test_plan_shards_rejects_tenant_load_overrides():
    config = short_config(
        workload=WorkloadSpec(
            tenants=TenantSpec(
                tenants=10,
                records_per_tenant=20,
                load_shape_overrides={0: ConstantLoad(5.0)},
            )
        )
    )
    with pytest.raises(ValueError, match="load_shape_overrides"):
        plan_shards(config, 2)


def test_plan_shards_rejects_bad_counts():
    with pytest.raises(ValueError):
        plan_shards(short_config(), 0)
    with pytest.raises(ValueError):
        plan_shards(short_config(workload=WorkloadSpec(record_count=2)), 3)


# ----------------------------------------------------------------------
# Merge determinism (the property CI asserts)
# ----------------------------------------------------------------------
def test_merged_report_is_invariant_to_shard_execution_order(monkeypatch):
    config = short_config()
    forward = run_sharded(config, 3, parallel=False)
    monkeypatch.setattr(sharding, "SHARD_ORDER", [2, 0, 1])
    shuffled = run_sharded(config, 3, parallel=False)
    assert json.dumps(forward.merged, sort_keys=True) == json.dumps(
        shuffled.merged, sort_keys=True
    )
    # Per-shard reports come back in index order either way.
    assert [r["label"] for r in forward.per_shard] == [
        r["label"] for r in shuffled.per_shard
    ]


def test_merged_counters_match_shard_sums():
    config = short_config()
    report = run_sharded(config, 2, parallel=False)
    merged = report.merged
    per_shard = report.per_shard
    issued = sum(r["workload"]["operations_issued"] for r in per_shard)
    events = sum(r["events_processed"] for r in per_shard)
    assert merged["workload"]["operations_issued"] == issued
    assert merged["events_processed"] == events
    assert issued > 0


def test_merge_rejects_duplicate_and_mixed_shard_counts():
    config = short_config()
    plans = plan_shards(config, 2)
    results = [run_shard(plan, index, 2) for index, plan in enumerate(plans)]
    with pytest.raises(ValueError, match="indices"):
        merge_shard_results([results[0], results[0]])
    mixed = dataclasses.replace(results[1], shards=3)
    with pytest.raises(ValueError, match="shard counts"):
        merge_shard_results([results[0], mixed])
    with pytest.raises(ValueError):
        merge_shard_results([])


def test_shard_results_are_picklable():
    import pickle

    config = short_config(duration=45.0)
    plan = plan_shards(config, 2)[0]
    result = run_shard(plan, 0, 2)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.index == 0
    assert clone.report["events_processed"] == result.report["events_processed"] > 0
    assert clone.read_sketch.count == result.read_sketch.count


def test_parallel_run_matches_serial_run():
    config = short_config()
    serial = run_sharded(config, 2, parallel=False)
    parallel = run_sharded(config, 2, parallel=True)
    assert json.dumps(serial.merged, sort_keys=True) == json.dumps(
        parallel.merged, sort_keys=True
    )
    assert parallel.timing["wall_seconds"] > 0.0
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# The sketches a shard hands over
# ----------------------------------------------------------------------
class _SketchPerOperation(ClusterListener):
    """Reference: one ``observe`` per completed production operation."""

    def __init__(self) -> None:
        self.read_sketch = MergeableHistogramSketch()
        self.write_sketch = MergeableHistogramSketch()

    def on_operation_completed(self, result) -> None:
        if result.operation.is_probe or result.rejected or not result.success:
            return
        sketch = self.read_sketch if result.is_read else self.write_sketch
        sketch.observe(result.latency)


def _sketch_plan(kind: str) -> SimulationConfig:
    if kind == "tenants":
        workload = WorkloadSpec(
            load_shape=ConstantLoad(80.0),
            tenants=TenantSpec(tenants=12, records_per_tenant=50),
        )
        return plan_shards(short_config(duration=60.0, workload=workload), 2)[0]
    config = short_config(duration=60.0)
    if kind == "faulted":
        config.faults = crash_and_partition_campaign(60.0, 4)
    return plan_shards(config, 2)[0]


def _run_observed_shard(monkeypatch, plan):
    """``run_shard(plan, 0, 2)`` with the reference listening; also returns
    the shard's simulation and the reference."""
    seen = []

    class _Observed(Simulation):
        def __init__(self, config) -> None:
            super().__init__(config)
            reference = _SketchPerOperation()
            self.cluster.add_listener(reference)
            seen.append((self, reference))

    # ``run_shard`` resolves ``repro.runner.Simulation`` when it is called.
    monkeypatch.setattr("repro.runner.Simulation", _Observed)
    result = run_shard(plan, 0, 2)
    ((simulation, reference),) = seen
    return result, simulation, reference


@pytest.mark.parametrize("kind", ("healthy", "faulted", "tenants"))
def test_shard_sketches_equal_a_per_operation_reference(kind, monkeypatch):
    result, _, reference = _run_observed_shard(monkeypatch, _sketch_plan(kind))
    for name in ("read_sketch", "write_sketch"):
        ours, theirs = getattr(result, name), getattr(reference, name)
        assert ours.count == theirs.count > 0
        assert (ours.bin_counts == theirs.bin_counts).all()
        assert ours.percentiles((50, 95, 99)) == theirs.percentiles((50, 95, 99))
        # One pairwise sum against a running one: equal to rounding.
        assert ours.mean() == pytest.approx(theirs.mean(), rel=1e-12)
    counters = result.workload_counters
    assert result.read_sketch.count == counters["reads_completed"]
    assert result.write_sketch.count == counters["writes_completed"]
    if kind == "faulted":
        assert counters["reads_failed"] + counters["writes_failed"] > 0


def test_buffered_collector_percentiles_track_exact_ones(monkeypatch):
    """The sketch a shard hands over, against the exact column it came from."""
    result, simulation, _ = _run_observed_shard(monkeypatch, _sketch_plan("healthy"))
    exact_p95 = simulation.workload.stats.read_latency_series.percentile(95.0)
    # Sketch rank differs from numpy interpolation by at most one sample, so
    # allow a little beyond the pure relative-error bound.
    assert result.read_sketch.percentile(95.0) == pytest.approx(exact_p95, rel=0.05)


# ----------------------------------------------------------------------
# Vectorized open-loop arrivals
# ----------------------------------------------------------------------
def open_loop_config(seed: int = 21) -> SimulationConfig:
    return short_config(
        seed=seed,
        duration=60.0,
        workload=WorkloadSpec(
            record_count=1_500, load_shape=ConstantLoad(80.0), open_loop=True
        ),
    )


def test_open_loop_run_is_deterministic():
    first = Simulation(open_loop_config()).run()
    second = Simulation(open_loop_config()).run()
    assert first.workload_summary == second.workload_summary
    assert first.events_processed == second.events_processed


def test_open_loop_issues_operations_and_all_kinds():
    config = open_loop_config()
    config.workload.operation_mix = dataclasses.replace(
        config.workload.operation_mix,
        read_fraction=0.5,
        update_fraction=0.4,
        insert_fraction=0.1,
    )
    simulation = Simulation(config)
    simulation.run()
    stats = simulation.workload.stats
    assert stats.reads_issued > 0
    assert stats.writes_issued > 0
    assert stats.reads_completed + stats.writes_completed > 0


def test_open_loop_uses_dedicated_streams():
    simulation = Simulation(open_loop_config())
    streams = simulation.simulator.streams
    issued = streams.known_streams()
    for suffix in ("gap", "mix", "key", "size"):
        assert f"workload:workload:{suffix}" in issued, issued


def test_open_loop_accepts_tenant_populations():
    # Once rejected; per-tenant chunked streams now make the combination
    # legal (full behavioural coverage lives in test_workload_tenants.py).
    spec = WorkloadSpec(open_loop=True, tenants=TenantSpec(tenants=5))
    assert spec.open_loop and spec.tenants is not None


def test_chunked_draws_differ_from_interleaved_but_same_magnitude():
    interleaved = Simulation(
        short_config(seed=21, duration=60.0,
                     workload=WorkloadSpec(record_count=1_500,
                                           load_shape=ConstantLoad(80.0)))
    ).run()
    chunked = Simulation(open_loop_config()).run()
    interleaved_issued = interleaved.workload_summary["operations_issued"]
    chunked_issued = chunked.workload_summary["operations_issued"]
    # Same offered rate, different (dedicated) streams: the realised counts
    # differ but both track rate * duration.
    assert chunked_issued != interleaved_issued
    assert chunked_issued == pytest.approx(interleaved_issued, rel=0.15)


def test_sharded_open_loop_end_to_end(monkeypatch):
    config = open_loop_config()
    report = run_sharded(config, 2, parallel=False)
    assert report.merged["workload"]["operations_issued"] > 0
    monkeypatch.setattr(sharding, "SHARD_ORDER", [1, 0])
    again = run_sharded(config, 2, parallel=False)
    assert json.dumps(report.merged, sort_keys=True) == json.dumps(
        again.merged, sort_keys=True
    )
