"""High-level simulation façade.

:class:`Simulation` wires every subsystem together — the discrete-event
kernel, the store, the workload, the monitoring stack, the ground-truth
trackers, the cost models and the autonomous controller — runs the scenario
and returns a :class:`SimulationReport` with everything the experiments and
examples report.  It is the single entry point the public API exposes::

    from repro import Simulation, SimulationConfig

    report = Simulation(SimulationConfig(duration=1800.0)).run()
    print(report.summary_table())
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from .cluster.cluster import Cluster, ClusterConfig, ClusterListener
from .cluster.errors import Settings, non_negative, positive
from .cluster.faults import FaultInjector, FaultPlan
from .consistency.staleness import StalenessObserver
from .consistency.window_tracker import InconsistencyWindowTracker
from .core.controller import AutonomousController, ControllerConfig
from .core.sla import SLA, default_sla
from .cost.billing import BillingModel
from .cost.compensation import CompensationModel, CompensationRates
from .cost.report import CostAccountant, CostReport
from .monitoring.estimators import (
    PiggybackMonitor,
    ProbeConfig,
    ReadAfterWriteProber,
    RttEstimator,
)
from .monitoring.metrics import MetricsCollector, TenantMetricsRollup
from .monitoring.overhead import MonitoringOverheadAccountant
from .simulation.engine import Simulator
from .simulation.interference import InterferenceConfig, InterferenceController
from .workload.generator import WorkloadGenerator, WorkloadSpec

__all__ = ["MonitoringOptions", "SimulationConfig", "SimulationReport", "Simulation"]


@dataclass
class MonitoringOptions(Settings):
    """How a scenario's monitoring components are set up."""

    probe: ProbeConfig = field(default_factory=ProbeConfig)


@dataclass
class SimulationConfig(Settings):
    """Full description of one simulated scenario."""

    seed: int = non_negative(0)
    duration: float = positive(1800.0)
    """Simulated seconds of workload execution."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    sla: SLA = field(default_factory=default_sla)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    monitoring: MonitoringOptions = field(default_factory=MonitoringOptions)
    interference: InterferenceConfig = field(default_factory=InterferenceConfig)
    compensation_rates: CompensationRates = field(default_factory=CompensationRates)
    label: str = "scenario"

    middleware: Optional[Sequence[str]] = None
    """Request-pipeline middleware names for the cluster (``None`` keeps
    ``cluster.middleware`` as configured; setting this overrides it).  The
    default stack reproduces the classic request path bit-identically."""

    middleware_params: Optional[Dict[str, Dict[str, object]]] = None
    """Per-middleware construction parameters, keyed by middleware name
    (e.g. ``{"request-hedging": {"budget_fraction": 0.02}}``).  ``None``
    keeps ``cluster.middleware_params`` as configured."""

    stream_namespace: str = ""
    """Prefix mixed into every named RNG stream's spawn key.

    Empty (the default) reproduces the classic streams bit-identically.  The
    sharded mode gives each shard a distinct namespace (``"shard0/4"``, ...)
    so shards draw from provably disjoint randomness without coordinating —
    see PERFORMANCE.md rule 9."""

    faults: Optional[FaultPlan] = None
    """Declarative fault campaign scheduled against the cluster at build time
    (``None`` = no injected faults; the default path stays bit-identical).
    Sharded runs split the plan per shard via :meth:`FaultPlan.shard`."""


@dataclass
class SimulationReport:
    """Everything one run produced, ready for tables."""

    label: str
    seed: int
    duration: float
    workload_summary: Dict[str, float]
    sla_summary: Dict[str, float]
    ground_truth_window: Dict[str, float]
    staleness: Dict[str, float]
    cost: CostReport
    controller_summary: Dict[str, float]
    final_configuration: Dict[str, object]
    estimator_estimates: Dict[str, Dict[str, float]]
    monitoring_overhead: Dict[str, Dict[str, float]]
    events_processed: int
    tenant_summary: Dict[str, object] = field(default_factory=dict)
    """Per-tenant rollup (top tenants, tier SLO attainment, admission stats);
    empty for single-tenant runs."""

    fault_summary: Dict[str, object] = field(default_factory=dict)
    """Injected-fault record (count, by-kind counts, event list); empty for
    fault-free runs."""

    def as_dict(self) -> Dict[str, object]:
        """Nested plain-dict view (JSON-serialisable)."""
        return {
            "label": self.label,
            "seed": self.seed,
            "duration": self.duration,
            "workload": dict(self.workload_summary),
            "sla": dict(self.sla_summary),
            "ground_truth_window": dict(self.ground_truth_window),
            "staleness": dict(self.staleness),
            "cost": self.cost.as_dict(),
            "controller": dict(self.controller_summary),
            "final_configuration": dict(self.final_configuration),
            "estimators": {k: dict(v) for k, v in self.estimator_estimates.items()},
            "monitoring_overhead": {
                k: dict(v) for k, v in self.monitoring_overhead.items()
            },
            "events_processed": self.events_processed,
            "tenants": dict(self.tenant_summary),
            "faults": dict(self.fault_summary),
        }

    def headline(self) -> Dict[str, float]:
        """The columns most experiment tables report."""
        return {
            "read_p95_ms": self.workload_summary.get("read_p95_ms", 0.0),
            "write_p95_ms": self.workload_summary.get("write_p95_ms", 0.0),
            "failure_fraction": self.workload_summary.get("failure_fraction", 0.0),
            "window_p95_s": self.ground_truth_window.get("p95_window", 0.0),
            "stale_fraction": self.staleness.get("stale_fraction", 0.0),
            "sla_violation_fraction": self.sla_summary.get("violation_fraction", 0.0),
            "node_hours": self.cost.node_hours,
            "total_cost": self.cost.total_cost,
        }


class _CostListener(ClusterListener):
    """Feeds topology and reconfiguration events into the billing model."""

    def __init__(self, simulator: Simulator, cluster: Cluster, billing: BillingModel) -> None:
        self._simulator = simulator
        self._cluster = cluster
        self._billing = billing

    def _provisioned_count(self) -> int:
        return len(self._cluster.node_ids())

    def on_topology_changed(self, change: Dict[str, object]) -> None:
        event = change.get("event")
        if event in ("node_joining", "node_removed"):
            self._billing.record_node_count(self._simulator.now, self._provisioned_count())
        if event in ("node_joining", "node_leaving"):
            self._billing.record_scaling_action()

    def on_reconfiguration(self, change: Dict[str, object]) -> None:
        self._billing.record_reconfiguration_action()


class _InterferenceListener(ClusterListener):
    """Attaches interference processes to nodes as they join."""

    def __init__(self, cluster: Cluster, interference: InterferenceController) -> None:
        self._cluster = cluster
        self._interference = interference

    def on_topology_changed(self, change: Dict[str, object]) -> None:
        if change.get("event") != "node_joining":
            return
        node_id = str(change.get("node"))
        node = self._cluster.nodes.get(node_id)
        if node is not None:
            self._interference.attach_server(node.server)


class Simulation:
    """Builds, runs and reports one scenario."""

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config or SimulationConfig()
        cluster_config = self.config.cluster
        if self.config.middleware is not None:
            # Never mutate the caller's config: a ClusterConfig may be shared
            # between scenarios that pick different pipelines.
            cluster_config = dataclasses.replace(
                cluster_config, middleware=tuple(self.config.middleware)
            )
        if self.config.middleware_params is not None:
            cluster_config = dataclasses.replace(
                cluster_config,
                middleware_params={
                    name: dict(params)
                    for name, params in self.config.middleware_params.items()
                },
            )
        self.simulator = Simulator(
            seed=self.config.seed, stream_namespace=self.config.stream_namespace
        )
        self.cluster = Cluster(self.simulator, cluster_config)
        self.fault_injector = FaultInjector(self.simulator, self.cluster)
        if self.config.faults is not None:
            self.config.faults.apply(self.fault_injector)

        # Ground truth and client-observed consistency tracking.
        self.window_tracker = InconsistencyWindowTracker(self.simulator)
        self.staleness_observer = StalenessObserver()
        self.cluster.add_listener(self.window_tracker)
        self.cluster.add_listener(self.staleness_observer)

        # Multi-tenant interference on nodes and network.
        self.interference = InterferenceController(
            self.simulator, self.cluster.network, self.config.interference
        )
        for node in self.cluster.nodes.values():
            self.interference.attach_server(node.server)
        self.cluster.add_listener(_InterferenceListener(self.cluster, self.interference))

        # Monitoring stack.
        self.metrics = MetricsCollector(self.simulator, self.cluster)
        self.overhead = MonitoringOverheadAccountant(self.cluster)
        prober = ReadAfterWriteProber(self.simulator, self.cluster, self.config.monitoring.probe)
        piggyback = PiggybackMonitor(self.simulator, self.cluster)
        rtt = RttEstimator(self.simulator, self.cluster)
        self.estimators: Dict[str, object] = {}
        for estimator in (prober, piggyback, rtt):
            self.estimators[estimator.name] = estimator
            self.overhead.register(estimator)
        # When the pipeline routes by latency, share its per-node RTT view
        # with the model-based estimator's reporting surface.  All RTT-driven
        # stages of one pipeline share a single tracker, so the first one
        # found is the tracker.
        for stage_name in (
            "latency-aware-selection",
            "request-hedging",
            "rtt-aware-write-routing",
        ):
            stage = self.cluster.pipeline.get(stage_name)
            if stage is not None:
                rtt.attach_node_tracker(stage.tracker)
                break
        # Hedged reads arm their timer at the observed p99 read latency
        # (clamped to the stage's static budget) instead of the static
        # fraction-of-timeout guess.
        hedging = self.cluster.pipeline.get("request-hedging")
        if hedging is not None:
            hedging.attach_budget_source(lambda: rtt.read_latency_percentile(99.0))

        # Cost accounting.
        self.cost = CostAccountant(
            compensation=CompensationModel(self.config.compensation_rates)
        )
        self.cluster.add_listener(self.cost.compensation)
        self.cluster.add_listener(
            _CostListener(self.simulator, self.cluster, self.cost.billing)
        )
        self.cost.billing.record_node_count(0.0, len(self.cluster.node_ids()))

        # Workload.
        self.workload = WorkloadGenerator(self.simulator, self.cluster, self.config.workload)

        # Multi-tenant wiring: tier-derived quotas into the admission stage
        # (unless the scenario pinned explicit quotas via middleware_params)
        # and a per-tenant metrics rollup charged against the monitoring
        # budget.  Absent a tenant population none of this exists, so the
        # single-tenant stack is untouched.
        self.tenant_rollup: Optional[TenantMetricsRollup] = None
        tenant_spec = self.config.workload.tenants
        if tenant_spec is not None and self.workload.population is not None:
            admission = self.cluster.pipeline.get("admission-control")
            explicit_quotas = "tiers" in self.cluster.config.middleware_params.get(
                "admission-control", {}
            )
            if admission is not None and not explicit_quotas:
                admission.configure_tiers(
                    {
                        tier.name: (tier.quota_rate, tier.quota_burst)
                        for tier in tenant_spec.tiers
                    }
                )
            self.tenant_rollup = TenantMetricsRollup(
                self.cluster,
                tier_of=self.workload.population.tier_lookup(),
                tier_slos_ms={
                    tier.name: tier.read_p99_slo_ms for tier in tenant_spec.tiers
                },
            )
            self.overhead.register(self.tenant_rollup)

        # Controller (present even for the static baseline so the SLA is
        # evaluated identically across policies).
        self.controller = AutonomousController(
            self.simulator,
            self.cluster,
            self.metrics,
            sla=self.config.sla,
            config=self.config.controller,
            estimators={name: est for name, est in self.estimators.items()},
            offered_rate_fn=self.workload.current_rate,
            tenant_rollup=self.tenant_rollup,
        )

        self._ran = False
        # ``build_report`` is idempotent: monitoring/SLA charges are recorded
        # as deltas against what previous calls already billed.
        self._billed_probe_operations = 0
        self._billed_analysis_cpu = 0.0
        self._billed_sla_penalty = 0.0

    @property
    def pipeline(self):
        """The request-middleware pipeline the cluster executes."""
        return self.cluster.pipeline

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Run the scenario to completion and build the report."""
        if self._ran:
            raise RuntimeError("Simulation.run() may only be called once per instance")
        self._ran = True
        self.workload.preload()
        self.workload.start()
        self.simulator.run_until(self.config.duration)
        self.workload.stop()
        return self.build_report()

    def run_until(self, time: float) -> None:
        """Advance the scenario to ``time`` (for step-wise examples/tests).

        The workload stops at the configured duration, exactly as
        :meth:`run` does — advancing past it first drains the arrival
        process at ``duration`` and then lets the remaining time play out
        (in-flight operations, background repair, monitoring), so reports
        built afterwards account a finished run rather than one with
        arrivals still scheduled.
        """
        if not self._ran:
            self.workload.preload()
            self.workload.start()
            self._ran = True
        duration = self.config.duration
        if time >= duration:
            if self.simulator.now < duration:
                self.simulator.run_until(duration)
            self.workload.stop()
        self.simulator.run_until(time)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def build_report(self) -> SimulationReport:
        """Assemble the report for whatever has been simulated so far.

        Safe to call repeatedly (after :meth:`run` or between
        :meth:`run_until` steps): monitoring and SLA charges are recorded as
        deltas, so a second call re-reports the same state instead of
        double-billing it.
        """
        now = self.simulator.now
        probe_operations = self.overhead.probe_operations
        self.cost.billing.record_probe_operations(
            probe_operations - self._billed_probe_operations
        )
        self._billed_probe_operations = probe_operations
        analysis_cpu = sum(
            overhead_report.analysis_cpu_seconds
            for overhead_report in self.overhead.reports().values()
        )
        self.cost.billing.record_analysis_cpu(analysis_cpu - self._billed_analysis_cpu)
        self._billed_analysis_cpu = analysis_cpu
        sla_penalty = self.controller.sla_evaluator.penalty_cost
        self.cost.add_sla_penalty(sla_penalty - self._billed_sla_penalty)
        self._billed_sla_penalty = sla_penalty
        cost_report = self.cost.report(end_time=now)
        admission = self.cluster.pipeline.get("admission-control")
        if admission is not None:
            # Shed load is a first-class cost line: rejections are free for
            # the cluster but not for the tenants they throttled.
            cost_report.details["admission.rejected_operations"] = float(
                admission.rejected
            )

        estimator_estimates: Dict[str, Dict[str, float]] = {}
        for name, estimator in self.estimators.items():
            latest = estimator.latest()
            estimator_estimates[name] = latest.as_dict() if latest else {}

        fault_summary: Dict[str, object] = {}
        if self.fault_injector.events:
            fault_summary = {
                "count": len(self.fault_injector.events),
                "by_kind": self.fault_injector.counts(),
                "link_drops": int(self.cluster.network.link_drops),
                "events": self.fault_injector.summary(),
            }

        tenant_summary: Dict[str, object] = {}
        if self.tenant_rollup is not None:
            tenant_summary = {
                "top_tenants": self.tenant_rollup.top_tenants(5),
                "tier_summary": self.tenant_rollup.tier_summary(),
            }
            if admission is not None:
                tenant_summary["admission"] = admission.describe()

        return SimulationReport(
            label=self.config.label,
            seed=self.config.seed,
            duration=now,
            workload_summary=self.workload.stats.summary(),
            sla_summary=self.controller.sla_evaluator.summary(),
            ground_truth_window=self.window_tracker.stats(),
            staleness=self.staleness_observer.snapshot().as_dict(),
            cost=cost_report,
            controller_summary=self.controller.summary(),
            final_configuration=self.cluster.configuration_snapshot(),
            estimator_estimates=estimator_estimates,
            monitoring_overhead={
                name: report.as_dict() for name, report in self.overhead.reports().items()
            },
            events_processed=self.simulator.events_processed,
            tenant_summary=tenant_summary,
            fault_summary=fault_summary,
        )
