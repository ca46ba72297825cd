"""Predictive (forecast-based) capacity scaling.

The "smart" half of smart auto-scaling without the consistency half: a
forecaster predicts the load over the provisioning lead time, the capacity
model converts it into a node count, and the policy scales towards that
target *before* the load arrives.  It still ignores the consistency knobs and
the staleness SLO, so comparing it against the SLA-driven policy isolates the
value of consistency awareness (experiment E5), while swapping its forecaster
isolates the value of better prediction (experiment E6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..actions import AddNodeAction, ReconfigurationAction, RemoveNodeAction
from ..analyzer import AnalysisResult
from ..knowledge import KnowledgeBase
from ..sla import SLA
from .base import ScalingPolicy

__all__ = ["PredictiveConfig", "PredictivePolicy"]

#: Provisioning lead time in seconds (how far ahead to look).
FORECAST_HORIZON = 300.0
#: How many nodes below the current count the target must fall before scaling in.
SCALE_IN_HYSTERESIS = 1


@dataclass
class PredictiveConfig:
    """Parameters of the predictive policy."""

    target_utilization: float = 0.6
    """Utilisation the cluster is sized for."""

    min_nodes: int = 2
    max_nodes: int = 32

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent parameters."""
        if not 0.0 < self.target_utilization < 1.0:
            raise ValueError("target_utilization must be in (0, 1)")
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise ValueError("require 1 <= min_nodes <= max_nodes")


class PredictivePolicy(ScalingPolicy):
    """Scale towards the node count the forecast load will need."""

    name = "predictive"

    def __init__(self, config: Optional[PredictiveConfig] = None) -> None:
        self.config = config or PredictiveConfig()
        self.config.validate()

    def decide(
        self,
        analysis: AnalysisResult,
        knowledge: KnowledgeBase,
        sla: SLA,
        cluster_state: Dict[str, object],
    ) -> List[ReconfigurationAction]:
        observation = analysis.observation
        node_count = int(cluster_state.get("node_count", observation.node_count))

        forecast_peak = knowledge.load_forecast_peak(FORECAST_HORIZON)
        current_load = max(observation.throughput_ops, observation.offered_rate)
        sizing_load = max(forecast_peak, current_load)
        target_nodes = knowledge.capacity.nodes_needed(
            sizing_load, self.config.target_utilization
        )
        target_nodes = max(
            max(self.config.min_nodes, observation.replication_factor),
            min(self.config.max_nodes, target_nodes),
        )

        if target_nodes > node_count:
            return [AddNodeAction()]
        if target_nodes <= node_count - SCALE_IN_HYSTERESIS and (
            node_count > max(self.config.min_nodes, observation.replication_factor)
        ):
            return [RemoveNodeAction()]
        return []
