"""Tests for the inconsistency-window estimators and overhead accounting."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, NodeConfig
from repro.monitoring import (
    MonitoringOverheadAccountant,
    PiggybackMonitor,
    ProbeConfig,
    ReadAfterWriteProber,
    RttEstimator,
)
from repro.simulation import Simulator
from repro.workload import BALANCED, ConstantLoad, WorkloadGenerator, WorkloadSpec


def make_cluster(simulator, ops_capacity=500.0):
    return Cluster(
        simulator,
        ClusterConfig(
            initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=ops_capacity)
        ),
    )


def start_workload(simulator, cluster, rate=100.0):
    workload = WorkloadGenerator(
        simulator,
        cluster,
        WorkloadSpec(record_count=300, operation_mix=BALANCED, load_shape=ConstantLoad(rate)),
    )
    workload.preload()
    workload.start()
    return workload


def test_prober_issues_probes_and_reports_estimates():
    simulator = Simulator(seed=1)
    cluster = make_cluster(simulator)
    prober = ReadAfterWriteProber(
        simulator, cluster, ProbeConfig(probe_interval=2.0)
    )
    start_workload(simulator, cluster, rate=50.0)
    simulator.run_until(60.0)
    assert prober.probes_started >= 25
    # Every resolved or given-up probe is one sample of some estimate.
    assert sum(estimate.samples for estimate in prober.estimates()) >= 20
    assert prober.operations_issued() > prober.probes_started
    assert len(prober.estimates()) == 6
    assert prober.latest() is not None


def test_prober_stop_halts_probing():
    simulator = Simulator(seed=3)
    cluster = make_cluster(simulator)
    prober = ReadAfterWriteProber(simulator, cluster, ProbeConfig(probe_interval=1.0))
    simulator.run_until(10.0)
    prober.stop()
    count = prober.probes_started
    simulator.run_until(30.0)
    assert prober.probes_started == count


def test_piggyback_monitor_sees_stale_reads_without_extra_load():
    simulator = Simulator(seed=4)
    cluster = make_cluster(simulator, ops_capacity=120.0)
    compared = []

    class Counting(PiggybackMonitor):
        def _build_estimate(self, now):
            compared.append(self._recent_reads)
            return super()._build_estimate(now)

    piggyback = Counting(simulator, cluster)
    start_workload(simulator, cluster, rate=140.0)
    simulator.run_until(120.0)
    assert piggyback.operations_issued() == 0
    assert sum(compared) + piggyback._recent_reads > 500
    assert len(piggyback.estimates()) == 12


@pytest.mark.slow
def test_rtt_estimator_scales_with_utilisation():
    simulator = Simulator(seed=5)
    cluster = make_cluster(simulator, ops_capacity=150.0)
    # The RTT model consumes node utilisation gauges, which are refreshed by
    # the metrics collector's sampling loop.
    from repro.monitoring import MetricsCollector

    MetricsCollector(simulator, cluster)
    estimator = RttEstimator(simulator, cluster)
    start_workload(simulator, cluster, rate=30.0)
    simulator.run_until(60.0)
    low_load = estimator.latest().mean_window
    start_workload(simulator, cluster, rate=120.0)
    simulator.run_until(240.0)
    high_load = estimator.latest().mean_window
    assert estimator.operations_issued() == 0
    assert high_load > low_load


def test_overhead_accountant_tracks_probe_share():
    simulator = Simulator(seed=6)
    cluster = make_cluster(simulator)
    accountant = MonitoringOverheadAccountant(cluster)
    prober = ReadAfterWriteProber(simulator, cluster, ProbeConfig(probe_interval=1.0))
    piggyback = PiggybackMonitor(simulator, cluster)
    accountant.register(prober)
    accountant.register(piggyback)
    start_workload(simulator, cluster, rate=50.0)
    simulator.run_until(60.0)
    reports = accountant.reports()
    assert reports["probe"].probe_operations > 0
    assert reports["probe"].probe_load_fraction > 0.0
    assert reports["piggyback"].probe_operations == 0
    assert reports["piggyback"].probe_load_fraction == 0.0
    assert accountant.probe_load_fraction > 0.0
    assert reports["probe"].analysis_cpu_seconds >= 0.0
    assert reports["probe"].as_dict()["probe_operations"] > 0


def test_estimate_dataclass_dict():
    simulator = Simulator(seed=7)
    cluster = make_cluster(simulator)
    estimator = RttEstimator(simulator, cluster)
    simulator.run_until(20.0)
    latest = estimator.latest()
    flat = latest.as_dict()
    assert set(flat) >= {"time", "mean_window", "p95_window", "stale_read_fraction", "samples"}
