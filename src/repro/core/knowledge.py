"""The knowledge base of the MAPE-K loop.

Everything the controller has learned about the running system lives here:
recent observations, the configuration and action history, an online estimate
of the replication lag (feeding the PBS-style staleness model), an online
estimate of per-node capacity, and the load forecaster.  The analyzer, the
planner and the policies only ever read from this object, which keeps the
MAPE phases decoupled and testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from ..consistency.pbs import StalenessModel
from .actions import ActionOutcome
from .forecasting import Forecaster, HoltWintersForecaster
from .sla import SystemObservation

__all__ = ["KnowledgeBase", "CapacityModel"]


class CapacityModel:
    """Online estimate of how many operations per second one node sustains.

    Starts from a configured prior and refines it with observed
    ``throughput / (node_count * utilisation)`` samples whenever the cluster
    is busy enough for that ratio to be informative.  The planner divides
    forecast load by this capacity to size the cluster.
    """

    def __init__(self, prior_ops_per_node: float = 800.0, learning_rate: float = 0.2) -> None:
        if prior_ops_per_node <= 0.0:
            raise ValueError("prior_ops_per_node must be > 0")
        self._estimate = float(prior_ops_per_node)
        self._learning_rate = min(1.0, max(0.0, learning_rate))

    @property
    def ops_per_node(self) -> float:
        """Current estimate of one node's sustainable throughput."""
        return self._estimate

    def observe(self, throughput: float, node_count: int, mean_utilization: float) -> None:
        """Fold in one observation (ignored when the cluster is nearly idle)."""
        if node_count <= 0 or mean_utilization < 0.15 or throughput <= 0.0:
            return
        implied = throughput / (node_count * mean_utilization)
        self._estimate += self._learning_rate * (implied - self._estimate)
        self._estimate = max(1.0, self._estimate)

    def nodes_needed(self, offered_rate: float, target_utilization: float) -> int:
        """Nodes required to serve ``offered_rate`` at the target utilisation."""
        if offered_rate <= 0.0:
            return 1
        target = min(0.95, max(0.05, target_utilization))
        import math

        return max(1, int(math.ceil(offered_rate / (self._estimate * target))))


class KnowledgeBase:
    """Shared state of the autonomous controller."""

    def __init__(
        self,
        forecaster: Optional[Forecaster] = None,
        capacity_prior_ops: float = 800.0,
        history_length: int = 512,
        lag_smoothing: float = 0.3,
    ) -> None:
        self.forecaster = forecaster or HoltWintersForecaster()
        self.capacity = CapacityModel(prior_ops_per_node=capacity_prior_ops)
        self.staleness_model = StalenessModel(mean_replication_lag=0.05)
        self._observations: Deque[SystemObservation] = deque(maxlen=history_length)
        self._actions: List[ActionOutcome] = []
        self._lag_estimate = 0.05
        self._lag_smoothing = min(1.0, max(0.0, lag_smoothing))

    # ------------------------------------------------------------------
    # Updates (Monitor phase writes, everything else reads)
    # ------------------------------------------------------------------
    def record_observation(self, observation: SystemObservation) -> None:
        """Store one observation and refresh the derived models."""
        self._observations.append(observation)
        load_signal = max(observation.throughput_ops, observation.offered_rate)
        self.forecaster.observe(observation.time, load_signal)
        self.capacity.observe(
            observation.throughput_ops,
            observation.node_count,
            observation.mean_utilization,
        )
        if observation.inconsistency_window_mean > 0.0:
            self._lag_estimate += self._lag_smoothing * (
                observation.inconsistency_window_mean - self._lag_estimate
            )
            self._lag_estimate = max(1e-4, self._lag_estimate)
            self.staleness_model.update_lag(self._lag_estimate)

    def record_action(self, outcome: ActionOutcome) -> None:
        """Store the outcome of an executed action."""
        self._actions.append(outcome)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def latest(self) -> Optional[SystemObservation]:
        """Most recent observation (or ``None``)."""
        return self._observations[-1] if self._observations else None

    def history(self, count: Optional[int] = None) -> List[SystemObservation]:
        """The last ``count`` observations (all when ``count`` is ``None``)."""
        if count is None:
            return list(self._observations)
        return list(self._observations)[-count:]

    def actions(self) -> List[ActionOutcome]:
        """All executed actions in order."""
        return list(self._actions)

    def load_forecast_peak(self, horizon: float) -> float:
        """Peak forecast load over the next ``horizon`` seconds."""
        if self.forecaster.observations == 0:
            latest = self.latest()
            return latest.throughput_ops if latest else 0.0
        return self.forecaster.forecast_peak(horizon)
