"""The autonomous controller: a MAPE-K loop over the cluster.

This is the system Section 4 of the paper envisions.  Every evaluation
interval the controller

1. **Monitors** — assembles a :class:`~repro.core.sla.SystemObservation` from
   the metrics collector (latency, throughput, utilisation, failures), the
   configured inconsistency-window estimator and the cluster's configuration
   snapshot.  Nothing in the observation requires simulator ground truth.
2. **Analyzes** — evaluates the SLA and lets the :class:`Analyzer` label the
   round with symptoms and root causes; the knowledge base updates its load
   forecast, capacity estimate and replication-lag model.
3. **Plans** — calls the configured policy (a function of
   :data:`~repro.core.planner.POLICIES`, SLA-driven by default), which
   returns one action or none, and passes that action through the
   :class:`StabilityGuard`.
4. **Executes** — applies the approved action to the cluster and records
   the outcome for convergence analysis and billing.

Every outcome is kept so that experiments can audit the controller's
behaviour after the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..cluster.cluster import Cluster
from ..cluster.errors import ConfigurationError, Settings, positive
from ..cluster.types import ConsistencyLevel
from ..monitoring.estimators import ConsistencyEstimator
from ..monitoring.metrics import MetricsCollector
from ..simulation.engine import PeriodicTask, Simulator
from .actions import ActionKind, ActionOutcome
from .analyzer import AnalysisResult, Analyzer
from .forecasting import FORECASTERS
from .knowledge import KnowledgeBase
from .planner import POLICIES, Policy
from .sla import SLA, SLAEvaluator, SystemObservation, default_sla
from .stability import StabilityConfig, StabilityGuard

__all__ = ["ControllerConfig", "AutonomousController"]

#: The registered estimator that feeds the inconsistency-window observation.
ESTIMATOR_SOURCE = "probe"


@dataclass
class ControllerConfig(Settings):
    """Configuration of the autonomous controller."""

    evaluation_interval: float = positive(30.0)
    """Seconds between MAPE-K rounds."""

    policy: str = "sla_driven"
    """A name of :data:`repro.core.planner.POLICIES`."""

    forecaster: str = "holt_winters"
    """A name of :data:`repro.core.forecasting.FORECASTERS`."""

    stability: StabilityConfig = field(default_factory=StabilityConfig)

    def __post_init__(self) -> None:
        for name, table in (("policy", POLICIES), ("forecaster", FORECASTERS)):
            value = getattr(self, name)
            if value not in table:
                raise ConfigurationError(
                    f"ControllerConfig.{name} must be one of {', '.join(sorted(table))}, "
                    f"got {value!r}"
                )


class AutonomousController:
    """SLA-driven autonomous reconfiguration and re-provisioning."""

    def __init__(
        self,
        simulator: Simulator,
        cluster: Cluster,
        metrics: MetricsCollector,
        sla: Optional[SLA] = None,
        config: Optional[ControllerConfig] = None,
        estimators: Optional[Dict[str, ConsistencyEstimator]] = None,
        offered_rate_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self._simulator = simulator
        self._cluster = cluster
        self._metrics = metrics
        self.config = config or ControllerConfig()
        self.sla = sla or default_sla()
        self.sla_evaluator = SLAEvaluator(self.sla)
        self.knowledge = KnowledgeBase(forecaster=FORECASTERS[self.config.forecaster]())
        self.analyzer = Analyzer()
        self.guard = StabilityGuard(self.config.stability)
        self.policy: Policy = POLICIES[self.config.policy]
        self._estimators = estimators or {}
        self._offered_rate_fn = offered_rate_fn

        self.action_log: List[ActionOutcome] = []
        self.rounds = 0
        self._task: Optional[PeriodicTask] = None
        self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic MAPE-K rounds."""
        if self._task is None:
            self._task = self._simulator.call_every(
                self.config.evaluation_interval,
                self.run_control_loop,
                label="controller:round",
                priority=Simulator.PRIORITY_CONTROL,
            )

    def stop(self) -> None:
        """Stop the periodic rounds."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------------
    # MAPE-K round
    # ------------------------------------------------------------------
    def run_control_loop(self) -> Optional[AnalysisResult]:
        """Execute one Monitor→Analyze→Plan→Execute round (also used by tests)."""
        observation = self._monitor()
        if observation is None:
            return None
        self.rounds += 1

        evaluation = self.sla_evaluator.evaluate(observation)
        self.knowledge.record_observation(observation)
        analysis = self.analyzer.analyze(observation, evaluation, self.knowledge, self.sla)
        self.guard.observe_analysis(analysis)

        action = self.policy(analysis, self.knowledge, self.sla)
        now = self._simulator.now
        if action is not None and self.guard.allows(action, now, analysis):
            outcome = action.apply(self._cluster, now)
            self.action_log.append(outcome)
            self.guard.record_outcome(outcome)
        return analysis

    # -- Monitor ----------------------------------------------------------
    def _monitor(self) -> Optional[SystemObservation]:
        snapshot = self._metrics.latest()
        if snapshot is None:
            return None
        window_mean = 0.0
        window_p95 = 0.0
        stale_fraction = snapshot.stale_read_fraction
        estimator = self._estimators.get(ESTIMATOR_SOURCE)
        if estimator is not None:
            estimate = estimator.latest()
            if estimate is not None:
                window_mean = estimate.mean_window
                window_p95 = estimate.p95_window
                if estimate.stale_read_fraction > 0.0:
                    stale_fraction = max(stale_fraction, estimate.stale_read_fraction)

        configuration = self._cluster.configuration_snapshot()
        offered_rate = self._offered_rate_fn() if self._offered_rate_fn else 0.0
        return SystemObservation(
            time=self._simulator.now,
            read_p95_latency=snapshot.read_p95_latency,
            write_p95_latency=snapshot.write_p95_latency,
            failure_fraction=snapshot.failure_fraction,
            stale_read_fraction=stale_fraction,
            inconsistency_window_p95=window_p95,
            inconsistency_window_mean=window_mean,
            throughput_ops=snapshot.throughput_ops,
            offered_rate=offered_rate,
            mean_utilization=snapshot.mean_utilization,
            max_utilization=snapshot.max_utilization,
            network_congestion=snapshot.network_congestion,
            node_count=int(configuration["node_count"]),
            replication_factor=int(configuration["replication_factor"]),
            read_consistency=ConsistencyLevel(configuration["read_consistency"]),
            write_consistency=ConsistencyLevel(configuration["write_consistency"]),
            tier_scales=configuration.get("admission_tier_scales", {}),
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def executed_actions(self) -> List[ActionOutcome]:
        """All actions that were actually applied."""
        return [outcome for outcome in self.action_log if outcome.applied]

    def scaling_actions(self) -> List[ActionOutcome]:
        """Applied actions that changed the node count."""
        return [
            outcome
            for outcome in self.executed_actions()
            if outcome.kind in (ActionKind.SCALE_OUT, ActionKind.SCALE_IN)
        ]

    def direction_flips(self) -> int:
        """Number of scale-direction reversals (oscillation metric for E4)."""
        scaling = self.scaling_actions()
        flips = 0
        for previous, current in zip(scaling, scaling[1:]):
            if previous.kind is not current.kind:
                flips += 1
        return flips

    def summary(self) -> Dict[str, float]:
        """Headline controller statistics for reports."""
        executed = self.executed_actions()
        return {
            "rounds": float(self.rounds),
            "actions_executed": float(len(executed)),
            "scale_out_actions": float(
                sum(1 for outcome in executed if outcome.kind is ActionKind.SCALE_OUT)
            ),
            "scale_in_actions": float(
                sum(1 for outcome in executed if outcome.kind is ActionKind.SCALE_IN)
            ),
            "consistency_actions": float(
                sum(1 for outcome in executed if outcome.kind is ActionKind.CONSISTENCY)
            ),
            "replication_actions": float(
                sum(1 for outcome in executed if outcome.kind is ActionKind.REPLICATION)
            ),
            "admission_actions": float(
                sum(1 for outcome in executed if outcome.kind is ActionKind.ADMISSION)
            ),
            "direction_flips": float(self.direction_flips()),
            **{f"guard.{key}": value for key, value in self.guard.stats().items()},
            **self.sla_evaluator.summary(),
        }
