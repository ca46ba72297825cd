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

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from .cluster.cluster import Cluster, ClusterConfig, ClusterListener
from .cluster.errors import Settings, non_negative, positive
from .cluster.faults import FaultInjector, FaultPlan
from .consistency.window_tracker import InconsistencyWindowTracker
from .core.controller import AutonomousController, ControllerConfig
from .core.sla import SLA, default_sla
from .cost.billing import BillingModel
from .cost.compensation import CompensationRates
from .cost.report import CostAccountant, CostReport
from .middleware.registry import check_stage_names
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
    """The request stack: ordered middleware names the cluster builds
    (``None`` is the default stack, which reproduces the classic request path
    bit-identically)."""

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

    def __post_init__(self) -> None:
        check_stage_names(self.middleware, "SimulationConfig.middleware")


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
        self.simulator = Simulator(
            seed=self.config.seed, stream_namespace=self.config.stream_namespace
        )
        self.cluster = Cluster(self.simulator, self.config.cluster, self.config.middleware)
        self.fault_injector = FaultInjector(self.simulator, self.cluster)
        if self.config.faults is not None:
            self.config.faults.apply(self.fault_injector)

        # Ground truth (client-observed staleness is the workload's tally).
        self.window_tracker = InconsistencyWindowTracker(self.simulator)
        self.cluster.add_listener(self.window_tracker)

        # Multi-tenant interference on nodes and network.
        self.interference = InterferenceController(
            self.simulator, self.cluster.network, self.config.interference
        )
        for node in self.cluster.nodes.values():
            self.interference.attach_server(node.server)
        self.cluster.add_listener(_InterferenceListener(self.cluster, self.interference))

        # The workload (its constructor schedules nothing), then the
        # monitoring stack, which reads what clients saw from its tally.
        self.workload = WorkloadGenerator(self.simulator, self.cluster, self.config.workload)
        stats = self.workload.stats
        self.metrics = MetricsCollector(self.simulator, self.cluster, stats)
        prober = ReadAfterWriteProber(self.simulator, self.cluster, self.config.monitoring.probe)
        piggyback = PiggybackMonitor(self.simulator, self.cluster)
        rtt = RttEstimator(self.simulator, self.cluster, stats)
        self.estimators: Dict[str, object] = {e.name: e for e in (prober, piggyback, rtt)}
        # Hedged reads arm their timer at the observed p99 read latency
        # (clamped to the stage's static budget) instead of the static
        # fraction-of-timeout guess.
        hedging = self.cluster.pipeline.get("request-hedging")
        if hedging is not None:
            hedging.attach_budget_source(lambda: rtt.read_latency_percentile(99.0))

        # Cost accounting.
        self.cost = CostAccountant(self.config.compensation_rates)
        self.cluster.add_listener(
            _CostListener(self.simulator, self.cluster, self.cost.billing)
        )
        self.cost.billing.record_node_count(0.0, len(self.cluster.node_ids()))

        # The monitoring share of the load, read from the workload's tally.
        self.overhead = MonitoringOverheadAccountant(stats, prober)
        for estimator in self.estimators.values():
            self.overhead.register(estimator)

        # Multi-tenant wiring: tier-derived quotas into the admission stage
        # and a per-tenant metrics rollup charged against the monitoring
        # budget.  Absent a tenant population none of this exists, so the
        # single-tenant stack is untouched.
        self.tenant_rollup: Optional[TenantMetricsRollup] = None
        tenant_spec = self.config.workload.tenants
        if tenant_spec is not None and self.workload.population is not None:
            admission = self.cluster.pipeline.get("admission-control")
            if admission is not None:
                admission.configure_tiers(
                    {
                        tier.name: (tier.quota_rate, tier.quota_burst)
                        for tier in tenant_spec.tiers
                    }
                )
            self.tenant_rollup = TenantMetricsRollup(stats, self.workload.population)
            self.overhead.register(self.tenant_rollup)

        # Controller (present even for the static baseline so the SLA is
        # evaluated identically across policies).
        self.controller = AutonomousController(
            self.simulator,
            self.cluster,
            self.metrics,
            sla=self.config.sla,
            config=self.config.controller,
            estimators=self.estimators,
            offered_rate_fn=self.workload.current_rate,
        )

        self._ran = False

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
        :meth:`run_until` steps): every charge is handed over as the run's
        total so far, so a second call re-reports the same state instead of
        double-billing it.
        """
        now = self.simulator.now
        stats = self.workload.stats
        overhead_reports = self.overhead.reports()
        self.cost.billing.charge_monitoring(
            self.overhead.probe_operations,
            sum(report.analysis_cpu_seconds for report in overhead_reports.values()),
        )
        cost_report = self.cost.report(now, self.controller.sla_evaluator.penalty_cost, stats)
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
            workload_summary=stats.summary(),
            sla_summary=self.controller.sla_evaluator.summary(),
            ground_truth_window=self.window_tracker.stats(),
            staleness=stats.staleness(),
            cost=cost_report,
            controller_summary=self.controller.summary(),
            final_configuration=self.cluster.configuration_snapshot(),
            estimator_estimates=estimator_estimates,
            monitoring_overhead={
                name: report.as_dict() for name, report in overhead_reports.items()
            },
            events_processed=self.simulator.events_processed,
            tenant_summary=tenant_summary,
            fault_summary=fault_summary,
        )
