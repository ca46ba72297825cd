"""Unit tests for load shapes and the workload generator."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, NodeConfig
from repro.simulation import Simulator
from repro.workload import (
    BALANCED,
    CompositeLoad,
    ConstantLoad,
    DiurnalLoad,
    FlashCrowdLoad,
    NoisyLoad,
    StepLoad,
    WorkloadGenerator,
    WorkloadSpec,
)
from repro.workload.load_shapes import LoadShape, ScaledLoad


# ----------------------------------------------------------------------
# Load shapes
# ----------------------------------------------------------------------
def test_constant_load():
    shape = ConstantLoad(50.0)
    assert shape.rate(0.0) == 50.0
    assert shape.rate(1e6) == 50.0
    with pytest.raises(ValueError):
        ConstantLoad(-1.0)


def test_diurnal_load_peaks_and_troughs():
    shape = DiurnalLoad(trough_rate=10.0, peak_rate=100.0, period=1000.0, peak_time=0.5)
    assert shape.rate(500.0) == pytest.approx(100.0)
    assert shape.rate(0.0) == pytest.approx(10.0)
    assert shape.rate(1000.0) == pytest.approx(10.0)
    mid = shape.rate(250.0)
    assert 10.0 < mid < 100.0
    with pytest.raises(ValueError):
        DiurnalLoad(trough_rate=50.0, peak_rate=10.0)


def test_flash_crowd_phases():
    shape = FlashCrowdLoad(
        base_rate=10.0,
        spike_rate=100.0,
        spike_start=100.0,
        ramp_duration=10.0,
        hold_duration=20.0,
        decay_duration=10.0,
    )
    assert shape.rate(50.0) == 10.0
    assert shape.rate(105.0) == pytest.approx(55.0)
    assert shape.rate(120.0) == 100.0
    assert shape.rate(135.0) == pytest.approx(55.0)
    assert shape.rate(200.0) == 10.0


def test_step_load():
    step = StepLoad(before_rate=10.0, after_rate=50.0, step_time=100.0)
    assert step.rate(99.9) == 10.0
    assert step.rate(100.0) == 50.0


def test_composite_and_addition_operator():
    combined = ConstantLoad(10.0) + ConstantLoad(5.0)
    assert isinstance(combined, CompositeLoad)
    assert combined.rate(0.0) == 15.0
    with pytest.raises(ValueError):
        CompositeLoad([])


def test_noisy_load_stays_near_base_and_is_deterministic():
    base = ConstantLoad(100.0)
    noisy = NoisyLoad(base, amplitude=0.1, period=60.0)
    values = [noisy.rate(t) for t in range(0, 600, 7)]
    assert all(85.0 <= v <= 115.0 for v in values)
    assert values == [noisy.rate(t) for t in range(0, 600, 7)]
    with pytest.raises(ValueError):
        NoisyLoad(base, amplitude=1.5)


def test_peak_rate_helper():
    shape = StepLoad(before_rate=10.0, after_rate=30.0, step_time=50.0)
    assert shape.peak_rate(0.0, 100.0) == 30.0


#: A valid declaration of every shape with a numeric argument.
_VALID_SHAPES = {
    ConstantLoad: dict(rate=10.0),
    DiurnalLoad: dict(trough_rate=10.0, peak_rate=100.0, period=60.0, peak_time=0.5),
    FlashCrowdLoad: dict(
        base_rate=10.0,
        spike_rate=100.0,
        spike_start=1.0,
        ramp_duration=1.0,
        hold_duration=1.0,
        decay_duration=1.0,
    ),
    StepLoad: dict(before_rate=10.0, after_rate=100.0, step_time=1.0),
    ScaledLoad: dict(base=ConstantLoad(10.0), factor=0.5),
    NoisyLoad: dict(base=ConstantLoad(10.0), amplitude=0.1, period=60.0),
}
#: Arguments that are points in time: any finite value, negative included.
_TIMES = {"peak_time", "spike_start", "step_time"}
#: Arguments that must be above zero, not merely at least zero.
_POSITIVE = {"period", "ramp_duration", "decay_duration"}


def _bad_shape_arguments():
    for shape, valid in _VALID_SHAPES.items():
        for name, good in valid.items():
            if isinstance(good, LoadShape):
                continue
            bad = [float("nan"), float("inf"), float("-inf")]
            if name not in _TIMES:
                bad.append(-1.0)
            if name in _POSITIVE:
                bad.append(0.0)
            for value in bad:
                yield pytest.param(shape, name, value, id=f"{shape.__name__}-{name}={value}")


def test_every_shape_with_a_numeric_argument_is_swept():
    ours = {shape for shape in LoadShape.__subclasses__() if shape.__module__ == LoadShape.__module__}
    assert ours == set(_VALID_SHAPES) | {CompositeLoad}


@pytest.mark.parametrize("shape, name, value", _bad_shape_arguments())
def test_a_shape_refuses_a_non_finite_or_out_of_range_argument_by_name(shape, name, value):
    # An infinite rate made every gap 0 and hung the run; a NaN one issued a
    # single operation; a NaN period or time made every rate NaN.
    with pytest.raises(ValueError, match=name):
        shape(**{**_VALID_SHAPES[shape], name: value})


# ----------------------------------------------------------------------
# Workload generator
# ----------------------------------------------------------------------
def make_generator(simulator, rate=200.0, mix=BALANCED, records=200):
    cluster = Cluster(
        simulator,
        ClusterConfig(initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=2000.0)),
    )
    spec = WorkloadSpec(
        record_count=records,
        operation_mix=mix,
        load_shape=ConstantLoad(rate),
    )
    return cluster, WorkloadGenerator(simulator, cluster, spec)


def test_preload_populates_the_store():
    simulator = Simulator(seed=1)
    cluster, generator = make_generator(simulator, records=100)
    loaded = generator.preload()
    assert loaded == 100
    versions = cluster.replica_versions("user0")
    assert any(v is not None for v in versions.values())


def test_a_second_preload_loads_draws_and_stamps_nothing():
    def after(preloads):
        simulator = Simulator(seed=1)
        cluster, generator = make_generator(simulator, records=100)
        loaded = [generator.preload() for _ in range(preloads)]
        applied = sum(node.storage.stats.writes_applied for node in cluster.nodes.values())
        stamps = {key: cluster.replica_versions(key) for key in ("user0", "user99")}
        next_sequence = cluster.coordinator.next_sequence()
        return loaded, applied, stamps, next_sequence, generator._rng.random()

    once, twice = after(1), after(2)
    assert once[0] == [100] and twice[0] == [100, 0]
    # Applies, the records' stamps, the sequence counter, the stream's next draw.
    assert once[1] == 300 and twice[1:] == once[1:]


def test_generator_issues_operations_at_roughly_target_rate():
    simulator = Simulator(seed=2)
    _cluster, generator = make_generator(simulator, rate=200.0)
    generator.preload()
    generator.start()
    simulator.run_until(20.0)
    issued = generator.stats.operations_issued
    assert issued == pytest.approx(200.0 * 20.0, rel=0.15)


def test_generator_respects_operation_mix():
    simulator = Simulator(seed=3)
    _cluster, generator = make_generator(simulator, rate=300.0, mix=BALANCED)
    generator.preload()
    generator.start()
    simulator.run_until(20.0)
    stats = generator.stats
    read_share = stats.reads_issued / stats.operations_issued
    assert read_share == pytest.approx(0.5, abs=0.05)


def test_generator_stop_halts_new_operations():
    simulator = Simulator(seed=4)
    _cluster, generator = make_generator(simulator)
    generator.preload()
    generator.start()
    simulator.run_until(5.0)
    generator.stop()
    issued = generator.stats.operations_issued
    simulator.run_until(15.0)
    assert generator.stats.operations_issued == issued


def test_generator_records_latencies_and_summary():
    simulator = Simulator(seed=5)
    _cluster, generator = make_generator(simulator, rate=100.0)
    generator.preload()
    generator.start()
    simulator.run_until(10.0)
    stats = generator.stats
    assert stats.operations_completed > 0
    assert stats.read_latency_series.percentile(95) > 0.0
    summary = stats.summary()
    assert summary["read_p95_ms"] > 0.0
    assert 0.0 <= summary["failure_fraction"] <= 1.0


def test_inserts_extend_the_key_space():
    simulator = Simulator(seed=6)
    from repro.workload import OperationMix

    insert_mix = OperationMix(read_fraction=0.2, update_fraction=0.0, insert_fraction=0.8)
    cluster = Cluster(
        simulator,
        ClusterConfig(initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=2000.0)),
    )
    spec = WorkloadSpec(record_count=50, operation_mix=insert_mix, load_shape=ConstantLoad(100.0))
    written, read = [], []
    real_write, real_read = cluster.write, cluster.read

    def recording_write(key, **kwargs):
        written.append(int(key[len("user"):]))
        real_write(key, **kwargs)

    def recording_read(key, **kwargs):
        read.append(int(key[len("user"):]))
        real_read(key, **kwargs)

    cluster.write, cluster.read = recording_write, recording_read
    generator = WorkloadGenerator(simulator, cluster, spec)
    generator.preload()
    generator.start()
    simulator.run_until(10.0)
    # With no updates in the mix every write is an insert: each takes the
    # next unused record index, starting right after the preloaded 50.
    assert generator.stats.writes_issued == len(written) > 0
    assert written == list(range(50, 50 + len(written)))
    # The popularity distribution grows with them, so reads reach new records.
    assert max(read) >= 50
    assert all(index < 50 + len(written) for index in read)


def test_current_rate_follows_the_shape():
    simulator = Simulator(seed=7)
    _cluster, generator = make_generator(simulator, rate=150.0)
    generator.preload()
    generator.start()
    simulator.run_until(30.0)
    assert generator.current_rate() == pytest.approx(150.0)


def test_scaled_load_multiplies_any_base_shape():
    from repro.workload.load_shapes import ScaledLoad

    base = DiurnalLoad(trough_rate=20.0, peak_rate=100.0, period=600.0)
    scaled = ScaledLoad(base, 0.25)
    for t in (0.0, 150.0, 300.0, 450.0):
        assert scaled.rate(t) == pytest.approx(base.rate(t) * 0.25)
    assert scaled._base is base
    assert scaled.factor == 0.25
    with pytest.raises(ValueError):
        ScaledLoad(base, -0.1)


def test_operation_mix_kind_for_matches_choose_thresholds():
    from repro.workload.operations import OperationMix

    mix = OperationMix(read_fraction=0.5, update_fraction=0.3, insert_fraction=0.2)
    assert mix.kind_for(0.0) == "read"
    assert mix.kind_for(0.499) == "read"
    assert mix.kind_for(0.5) == "update"
    assert mix.kind_for(0.799) == "update"
    assert mix.kind_for(0.8) == "insert"
    assert mix.kind_for(0.999) == "insert"


def test_open_loop_spec_described_and_validated():
    spec = WorkloadSpec(open_loop=True)
    assert spec.describe()["open_loop"] is True
    assert WorkloadSpec().describe()["open_loop"] is False


def test_open_loop_generator_draws_nothing_from_base_stream_after_preload():
    simulator = Simulator(seed=5)
    cluster = Cluster(
        simulator,
        ClusterConfig(initial_nodes=3, node=NodeConfig(ops_capacity=500.0)),
    )
    spec = WorkloadSpec(
        record_count=500, load_shape=ConstantLoad(50.0), open_loop=True
    )
    generator = WorkloadGenerator(simulator, cluster, spec)
    generator.preload()
    generator.start()
    simulator.run_until(30.0)
    # All arrival-path draws come from the four dedicated streams.
    names = simulator.streams.known_streams()
    for suffix in ("gap", "mix", "key", "size"):
        assert f"workload:workload:{suffix}" in names
    assert generator.stats.operations_issued > 0
