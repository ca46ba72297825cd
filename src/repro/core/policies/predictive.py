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

from typing import Dict, List

from ..actions import AddNodeAction, ReconfigurationAction, RemoveNodeAction
from ..analyzer import AnalysisResult
from ..knowledge import KnowledgeBase
from ..sla import SLA
from .base import ScalingPolicy

__all__ = ["PredictivePolicy"]

#: Provisioning lead time in seconds (how far ahead to look).
FORECAST_HORIZON = 300.0
#: How many nodes below the current count the target must fall before scaling in.
SCALE_IN_HYSTERESIS = 1
#: Utilisation the cluster is sized for.
TARGET_UTILIZATION = 0.6
#: Bounds on the node count the policy scales between.
MIN_NODES = 2
MAX_NODES = 32


class PredictivePolicy(ScalingPolicy):
    """Scale towards the node count the forecast load will need."""

    name = "predictive"

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
            sizing_load, TARGET_UTILIZATION
        )
        target_nodes = max(
            max(MIN_NODES, observation.replication_factor),
            min(MAX_NODES, target_nodes),
        )

        if target_nodes > node_count:
            return [AddNodeAction()]
        if target_nodes <= node_count - SCALE_IN_HYSTERESIS and (
            node_count > max(MIN_NODES, observation.replication_factor)
        ):
            return [RemoveNodeAction()]
        return []
