"""Each per-operation fact has one store (PERFORMANCE.md rule 15).

A completed operation's latency and a stale read's age live in the
workload's series, a closed or expired window in the tracker's; the metrics
collector keeps gauges only.  A second copy of any of them shows here as a
length that no longer matches its counter, or as a per-operation name among
the gauges.  Counts are held to the same rule: what a client saw is counted
by ``WorkloadStats`` alone, so the completion listeners of a stock run are
exactly the components that keep something else, and a counting listener
that comes back fails here by name.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.scenarios import build_config, standard_cluster, standard_workload
from repro.monitoring.estimators import PiggybackMonitor, RttEstimator
from repro.monitoring.metrics import MetricsCollector, MetricsSnapshot, TenantMetricsRollup
from repro.runner import Simulation
from repro.workload.operations import BALANCED

from test_request_path_digests import DURATION, _config

GAUGES = {
    field.name for field in dataclasses.fields(MetricsSnapshot) if field.name != "time"
}


def _stale_reads_config():
    # E2's scenario: none of the request-path cells returns a stale read in
    # a minute, and the staleness checks below need some.
    return build_config(
        label="stored-once-stale",
        seed=2,
        duration=DURATION,
        cluster=standard_cluster(nodes=3, replication_factor=3),
        workload=standard_workload(135.0, mix=BALANCED),
        policy="static",
    )


@pytest.mark.parametrize("stack", ("default", "hedged", "admission", "stale_reads"))
def test_every_sample_is_stored_once(stack):
    config = _stale_reads_config() if stack == "stale_reads" else _config(stack)
    simulation = Simulation(config)
    simulation.run()

    stats = simulation.workload.stats
    assert len(stats.read_latency_series) == stats.reads_completed > 0
    assert len(stats.write_latency_series) == stats.writes_completed > 0

    assert set(simulation.metrics.series._series) == GAUGES

    tracker = simulation.window_tracker
    assert len(tracker.series) == tracker.windows_closed + tracker.windows_expired > 0

    whole_run = stats.staleness()
    assert whole_run["reads"] == stats.reads_completed
    assert len(stats.staleness_series) == stats.stale_reads == whole_run["stale_reads"]
    if stack == "stale_reads":
        assert whole_run["stale_reads"] > 0 and whole_run["max_staleness"] > 0.0


def _completion_listeners(simulation):
    return [type(observer.__self__) for observer in simulation.cluster.completion_observers]


def test_only_what_keeps_something_else_listens_to_completions():
    # The collector keeps gauges, the piggyback monitor acknowledged versions
    # and the RTT model its latency window; staleness, compensation and the
    # monitoring share are read from the workload's and the prober's counts.
    assert _completion_listeners(Simulation(_config("default"))) == [
        MetricsCollector,
        PiggybackMonitor,
        RttEstimator,
    ]
    tenants = Simulation(_config("admission"))
    assert tenants.tenant_rollup is not None
    assert _completion_listeners(tenants) == [
        MetricsCollector,
        PiggybackMonitor,
        RttEstimator,
        TenantMetricsRollup,
    ]
