"""The knowledge base of the MAPE-K loop.

Everything the controller has learned about the running system lives here:
the latest observation, an online estimate of the replication lag (feeding
the PBS-style staleness model), an online estimate of per-node capacity, and
the load forecaster.  The analyzer and the policies only ever read from this
object, which keeps the MAPE phases decoupled and testable.
"""

from __future__ import annotations

import math
from typing import Optional

from ..consistency.pbs import StalenessModel
from .forecasting import Forecaster, HoltWintersForecaster
from .sla import SystemObservation

__all__ = ["KnowledgeBase", "CapacityModel"]

#: Weight of each new inconsistency-window mean in the lag estimate.
LAG_SMOOTHING = 0.3
#: Operations per second one node is assumed to sustain before any sample.
PRIOR_OPS_PER_NODE = 800.0
#: Weight of each informative sample in the capacity estimate.
CAPACITY_LEARNING_RATE = 0.2


class CapacityModel:
    """Online estimate of how many operations per second one node sustains.

    Starts from ``PRIOR_OPS_PER_NODE`` and refines it with observed
    ``throughput / (node_count * utilisation)`` samples whenever the cluster
    is busy enough for that ratio to be informative.  The planner divides
    forecast load by this capacity to size the cluster.
    """

    def __init__(self) -> None:
        self._estimate = PRIOR_OPS_PER_NODE

    @property
    def ops_per_node(self) -> float:
        """Current estimate of one node's sustainable throughput."""
        return self._estimate

    def observe(self, throughput: float, node_count: int, mean_utilization: float) -> None:
        """Fold in one observation (ignored when the cluster is nearly idle)."""
        if node_count <= 0 or mean_utilization < 0.15 or throughput <= 0.0:
            return
        implied = throughput / (node_count * mean_utilization)
        self._estimate += CAPACITY_LEARNING_RATE * (implied - self._estimate)
        self._estimate = max(1.0, self._estimate)

    def nodes_needed(self, offered_rate: float, target_utilization: float) -> int:
        """Nodes required to serve ``offered_rate`` at the target utilisation."""
        if offered_rate <= 0.0:
            return 1
        target = min(0.95, max(0.05, target_utilization))
        return max(1, int(math.ceil(offered_rate / (self._estimate * target))))


class KnowledgeBase:
    """Shared state of the autonomous controller."""

    def __init__(self, forecaster: Optional[Forecaster] = None) -> None:
        self.forecaster = forecaster or HoltWintersForecaster()
        self.capacity = CapacityModel()
        self.staleness_model = StalenessModel(mean_replication_lag=0.05)
        self._latest: Optional[SystemObservation] = None
        self._lag_estimate = 0.05

    # ------------------------------------------------------------------
    # Updates (Monitor phase writes, everything else reads)
    # ------------------------------------------------------------------
    def record_observation(self, observation: SystemObservation) -> None:
        """Store one observation and refresh the derived models."""
        self._latest = observation
        load_signal = max(observation.throughput_ops, observation.offered_rate)
        self.forecaster.observe(observation.time, load_signal)
        self.capacity.observe(
            observation.throughput_ops,
            observation.node_count,
            observation.mean_utilization,
        )
        if observation.inconsistency_window_mean > 0.0:
            self._lag_estimate += LAG_SMOOTHING * (
                observation.inconsistency_window_mean - self._lag_estimate
            )
            self._lag_estimate = max(1e-4, self._lag_estimate)
            self.staleness_model.update_lag(self._lag_estimate)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def latest(self) -> Optional[SystemObservation]:
        """Most recent observation (or ``None``)."""
        return self._latest

    def load_forecast_peak(self, horizon: float) -> float:
        """Peak forecast load over the next ``horizon`` seconds."""
        if self.forecaster.observations == 0:
            latest = self.latest()
            return latest.throughput_ops if latest else 0.0
        return self.forecaster.forecast_peak(horizon)
