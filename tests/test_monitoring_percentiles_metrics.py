"""Unit tests for the percentile sketch and the metrics collector."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, NodeConfig
from repro.monitoring import MetricsCollector
from repro.monitoring.metrics import GAUGES
from repro.monitoring.percentiles import MergeableHistogramSketch
from repro.simulation import Simulator
from repro.workload import BALANCED, ConstantLoad, WorkloadGenerator, WorkloadSpec


@pytest.mark.parametrize("q", [150.0, -5.0, float("nan")])
def test_a_percentile_outside_0_to_100_is_refused_with_numpys_error(q):
    # The sketch used to answer p150 with its clamp ceiling and p-5 with its
    # first bin, and to fail on a NaN q converting it to an integer.
    with pytest.raises(ValueError) as numpy_refused:
        np.percentile([0.004, 0.010], q)
    sketch = MergeableHistogramSketch()
    for samples in ((), (0.004, 0.010)):
        for value in samples:
            sketch.observe(value)
        with pytest.raises(ValueError) as refused:
            sketch.percentile(q)
        assert str(refused.value) == str(numpy_refused.value)


@pytest.mark.parametrize("q", [150.0, -5.0, float("nan")])
def test_the_sketch_refuses_a_bad_q_among_several(q):
    sketch = MergeableHistogramSketch()
    for samples in ((), (0.004, 0.010)):
        for value in samples:
            sketch.observe(value)
        with pytest.raises(ValueError):
            sketch.percentiles((50.0, q))
    assert sketch.percentiles((0.0, 100.0)) == [sketch.percentile(0.0), sketch.percentile(100.0)]


# ----------------------------------------------------------------------
# MetricsCollector
# ----------------------------------------------------------------------
def make_collector(seed=1, rate=150.0):
    simulator = Simulator(seed=seed)
    cluster = Cluster(
        simulator,
        ClusterConfig(initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=500.0)),
    )
    workload = WorkloadGenerator(
        simulator,
        cluster,
        WorkloadSpec(record_count=200, operation_mix=BALANCED, load_shape=ConstantLoad(rate)),
    )
    collector = MetricsCollector(simulator, cluster, workload.stats)
    workload.preload()
    workload.start()
    return simulator, cluster, collector, workload


def test_collector_produces_snapshots_with_traffic():
    simulator, _cluster, collector, _workload = make_collector()
    simulator.run_until(60.0)
    latest = collector.latest()
    assert latest is not None
    assert latest.throughput_ops > 0.0
    assert latest.read_p95_latency > 0.0
    assert latest.node_count == 3
    assert 0.0 <= latest.mean_utilization <= 1.0
    assert len(collector.series["throughput_ops"]) == 12


def test_collector_series_recorded():
    simulator, _cluster, collector, _workload = make_collector()
    simulator.run_until(30.0)
    assert "throughput_ops" in collector.series
    # Gauges only: a completed operation's latency is stored once, by the
    # workload (tests/test_stored_once.py).
    assert "read_latency" not in collector.series
    assert len(collector.series["throughput_ops"]) >= 5


def test_collector_excludes_probe_operations_by_default():
    simulator, cluster, collector, _workload = make_collector()
    from repro.cluster.types import OperationType

    cluster.write("probe-key", b"p", operation=OperationType.PROBE_WRITE)
    simulator.run_until(10.0)
    # Only checks that the call path does not blow up and probes are not
    # required for snapshots; production traffic dominates anyway.
    assert collector.latest() is not None


def test_collector_snapshot_dict_shape():
    simulator, _cluster, collector, _workload = make_collector()
    simulator.run_until(20.0)
    latest = collector.latest()
    # One series per field of a snapshot but its time, in field order.
    assert GAUGES == tuple(field.name for field in dataclasses.fields(latest))[1:]
    for key in GAUGES:
        assert collector.series[key].last() == getattr(latest, key)


# ----------------------------------------------------------------------
# MergeableHistogramSketch: the sharded-mode merge primitive
# ----------------------------------------------------------------------
def _stream(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Lognormal latencies spanning several orders of magnitude, the regime
    # the sketch exists for.
    return rng.lognormal(mean=-4.0, sigma=1.5, size=count)


def test_sketch_merge_equals_single_sketch_over_concatenation():
    from repro.monitoring.percentiles import MergeableHistogramSketch

    values = _stream(1, 9_001)
    for shards in (1, 2, 3, 5, 8):
        parts = np.array_split(values, shards)
        shard_sketches = []
        for part in parts:
            sketch = MergeableHistogramSketch()
            sketch.observe_many(part)
            shard_sketches.append(sketch)
        merged = MergeableHistogramSketch.merged(shard_sketches)
        whole = MergeableHistogramSketch()
        whole.observe_many(values)
        # Exact: merging is bin-count addition, so any K and any split must
        # reproduce the single sketch bit for bit.
        assert np.array_equal(merged.bin_counts, whole.bin_counts)
        assert merged.count == whole.count
        assert merged.snapshot() == whole.snapshot()


def test_sketch_merge_is_order_independent():
    from repro.monitoring.percentiles import MergeableHistogramSketch

    parts = [_stream(seed, 1_000 + 137 * seed) for seed in range(4)]
    sketches = []
    for part in parts:
        sketch = MergeableHistogramSketch()
        sketch.observe_many(part)
        sketches.append(sketch)
    forward = MergeableHistogramSketch.merged(sketches)
    backward = MergeableHistogramSketch.merged(list(reversed(sketches)))
    assert np.array_equal(forward.bin_counts, backward.bin_counts)
    assert forward.snapshot() == backward.snapshot()


@pytest.mark.parametrize(
    "values",
    [_stream(7, 2_000), np.array([0.002, float("nan"), 0.004])],
    ids=["lognormal", "nan"],
)
def test_sketch_merge_uneven_splits_and_scalar_observe_agree(values):
    from repro.monitoring.percentiles import MergeableHistogramSketch

    def held(feed):
        """Bin counts and count after ``feed``, or "refused" on ValueError."""
        sketch = MergeableHistogramSketch()
        try:
            feed(sketch)
        except ValueError:
            return "refused"
        return sketch.bin_counts.tolist(), sketch.count

    def uneven(sketch):
        # Pathologically uneven split: 1 element / the rest.
        sketch.observe(float(values[0]))
        tail = MergeableHistogramSketch()
        tail.observe_many(values[1:])
        sketch.merge(tail)

    def scalar(sketch):
        for value in values:
            sketch.observe(float(value))

    whole = held(lambda sketch: sketch.observe_many(values))
    assert held(uneven) == whole
    assert held(scalar) == whole


def test_sketch_quantile_error_bound_vs_ground_truth():
    from repro.monitoring.percentiles import MergeableHistogramSketch

    accuracy = 0.01
    values = _stream(3, 20_000)
    sketch = MergeableHistogramSketch(accuracy=accuracy)
    sketch.observe_many(values)
    ordered = np.sort(values)
    for q in (1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        rank = max(1, int(np.ceil(q / 100.0 * ordered.shape[0])))
        truth = float(ordered[rank - 1])
        estimate = sketch.percentile(q)
        assert abs(estimate - truth) <= accuracy * truth + 1e-12, (
            f"p{q}: estimate {estimate} vs truth {truth} exceeds "
            f"{accuracy:.0%} relative error"
        )


def test_sketch_rejects_incompatible_merge():
    from repro.monitoring.percentiles import MergeableHistogramSketch

    a = MergeableHistogramSketch(accuracy=0.01)
    b = MergeableHistogramSketch(accuracy=0.02)
    with pytest.raises(ValueError):
        a.merge(b)


def test_sketch_zero_and_out_of_range_values():
    from repro.monitoring.percentiles import MergeableHistogramSketch

    sketch = MergeableHistogramSketch(min_value=1e-6, max_value=10.0)
    sketch.observe(0.0)
    sketch.observe(-1.0)
    sketch.observe(1e-12)  # below min: clamped into the first bin
    sketch.observe(1e6)  # above max: clamped into the last bin
    assert sketch.count == 4
    # Zero/negative dominate the low quantiles.
    assert sketch.percentile(25.0) == 0.0
    assert sketch.percentile(99.0) <= 10.0 * (1.0 + 0.01)


def test_sketch_mean_is_exact():
    from repro.monitoring.percentiles import MergeableHistogramSketch

    values = _stream(5, 512)
    sketch = MergeableHistogramSketch()
    sketch.observe_many(values)
    assert sketch.mean() == pytest.approx(float(np.mean(values)), rel=1e-12)


def test_sketch_pickle_roundtrip_preserves_counts():
    import pickle

    from repro.monitoring.percentiles import MergeableHistogramSketch

    sketch = MergeableHistogramSketch()
    sketch.observe_many(_stream(9, 300))
    clone = pickle.loads(pickle.dumps(sketch))
    assert np.array_equal(clone.bin_counts, sketch.bin_counts)
    assert clone.snapshot() == sketch.snapshot()
    # The clone keeps merging correctly (the property shard results rely on).
    merged = MergeableHistogramSketch.merged([sketch, clone])
    assert merged.count == 2 * sketch.count
