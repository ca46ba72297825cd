"""Each per-operation fact has one store (PERFORMANCE.md rule 15).

A completed operation's latency and a stale read's age live in the
workload's series, a closed or expired window in the tracker's; the metrics
collector keeps gauges only, and it and the RTT model take their latency
percentiles from the tail of the workload's series.  A second copy of any of
them shows here as a length that no longer matches its counter, or as a
per-operation name among the gauges; a tenant run adds one column, each
read's tenant, aligned with the read series.  Counts are held to the same
rule: what a client saw is counted by ``WorkloadStats`` alone, so the
completion listeners of a stock run are exactly the components that keep
something else (the piggyback monitor's acknowledged versions), a counting
listener that comes back fails here by name, and a stack without the
``monitoring-hooks`` stage still shows the controller and the tenant rollup
what clients saw.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments.scenarios import build_config, standard_cluster, standard_workload
from repro.middleware import ADMISSION_CONTROL_PIPELINE, DEFAULT_REQUEST_PIPELINE
from repro.monitoring.estimators import PiggybackMonitor
from repro.monitoring.metrics import GAUGES
from repro.runner import Simulation, SimulationConfig
from repro.workload.operations import BALANCED

from test_request_path_digests import DURATION, STACKS, _config


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
    if stack == "admission":
        assert len(stats.read_tenants) == stats.reads_completed
    else:
        assert stats.read_tenants is None

    assert tuple(simulation.metrics.series._series) == GAUGES

    tracker = simulation.window_tracker
    assert len(tracker.series) == tracker.windows_closed + tracker.windows_expired > 0

    whole_run = stats.staleness()
    assert whole_run["reads"] == stats.reads_completed
    assert len(stats.staleness_series) == stats.stale_reads == whole_run["stale_reads"]
    if stack == "stale_reads":
        assert whole_run["stale_reads"] > 0 and whole_run["max_staleness"] > 0.0


def _completion_listeners(simulation):
    return [type(observer.__self__) for observer in simulation.cluster.completion_observers]


@pytest.mark.parametrize("stack", STACKS)
def test_only_what_keeps_something_else_listens_to_completions(stack):
    # The piggyback monitor keeps acknowledged versions; the controller's
    # metrics, the RTT model, the tenant rollup, staleness, compensation and
    # the monitoring share are read from the workload's and the prober's
    # counts and series.
    simulation = Simulation(_config(stack))
    assert (simulation.tenant_rollup is not None) == (stack == "admission")
    assert _completion_listeners(simulation) == [PiggybackMonitor]


def test_without_the_monitoring_hooks_the_controller_still_sees_the_clients():
    stack = tuple(name for name in DEFAULT_REQUEST_PIPELINE if name != "monitoring-hooks")
    simulation = Simulation(SimulationConfig(seed=3, duration=DURATION, middleware=stack))
    simulation.run()
    stats = simulation.workload.stats
    assert stats.operations_completed > 1000

    latest = simulation.metrics.latest()
    window = simulation.metrics.series["throughput_ops"]
    # The window counts sum to the tally (a sample every 5 s, the last at 60 s).
    assert window.values.sum() * 5.0 == pytest.approx(stats.operations_completed)
    assert latest.throughput_ops > 0.0
    assert latest.read_p95_latency > 0.0
    assert latest.write_p95_latency > 0.0
    assert simulation.estimators["rtt"].read_latency_percentile(99) > 0.0
    assert simulation.estimators["rtt"].latest().samples == stats.writes_completed > 0


def test_without_the_monitoring_hooks_the_tenant_rollup_still_sees_the_clients():
    with_hooks = Simulation(_config("admission"))
    with_hooks.run()
    stack = tuple(name for name in ADMISSION_CONTROL_PIPELINE if name != "monitoring-hooks")
    without_hooks = Simulation(replace(_config("admission"), middleware=stack))
    without_hooks.run()
    assert without_hooks.workload.stats.reads_completed > 1000
    tiers = without_hooks.tenant_rollup.tier_summary()
    assert set(tiers) == {"bronze", "gold", "silver"}
    assert tiers == with_hooks.tenant_rollup.tier_summary()


#: E2's report with each estimator's ``probe_operations`` and
#: ``probe_load_fraction`` taken out, captured while the overhead report
#: counted the probes the prober issued: counting the ones that resolved
#: instead must move nothing else.
REPORT_WITHOUT_PROBE_FIGURES = (
    "46c05f4da647f9d652139f0d1b907355134781df6add3df36787b567e12a4ed2"
)


def test_the_probe_count_moves_only_the_two_overhead_probe_figures():
    report = Simulation(_stale_reads_config()).run().as_dict()
    # The one probe count: what billing charges is what the overhead reports.
    probes = report["cost"]["billing.probe_operations"]
    assert report["monitoring_overhead"]["probe"]["probe_operations"] == probes == 22.0
    for overhead in report["monitoring_overhead"].values():
        del overhead["probe_operations"], overhead["probe_load_fraction"]
    blob = json.dumps(report, sort_keys=True, default=repr)
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_WITHOUT_PROBE_FIGURES
