"""Reactive threshold-based auto-scaling (the industry-standard baseline).

This is the rule every mainstream autoscaler (EC2 target tracking, KEDA,
Kubernetes HPA) implements: watch a utilisation metric, add a node when it
exceeds a high-water mark, remove one when it falls below a low-water mark.
It knows nothing about consistency, SLAs or the future — which is exactly
what experiments E5/E6 exploit to show the delta of the paper's approach: the
reactive policy reacts *after* the inconsistency window has already blown
through the SLO and keeps paying for the lag of its own scaling actions.
"""

from __future__ import annotations

from typing import Dict, List

from ..actions import AddNodeAction, ReconfigurationAction, RemoveNodeAction
from ..analyzer import AnalysisResult
from ..knowledge import KnowledgeBase
from ..sla import SLA
from .base import ScalingPolicy

__all__ = ["ReactiveThresholdPolicy"]

#: Mean utilisation above which one node is added.
SCALE_OUT_UTILIZATION = 0.75
#: Mean utilisation below which one node is removed.
SCALE_IN_UTILIZATION = 0.3
#: Bounds on the node count the policy scales between.
MIN_NODES = 2
MAX_NODES = 32


class ReactiveThresholdPolicy(ScalingPolicy):
    """Utilisation-threshold scaling, consistency-agnostic."""

    name = "reactive_threshold"

    def decide(
        self,
        analysis: AnalysisResult,
        knowledge: KnowledgeBase,
        sla: SLA,
        cluster_state: Dict[str, object],
    ) -> List[ReconfigurationAction]:
        observation = analysis.observation
        node_count = int(cluster_state.get("node_count", observation.node_count))
        utilization = observation.mean_utilization

        if (
            utilization >= SCALE_OUT_UTILIZATION
            and node_count < MAX_NODES
        ):
            return [AddNodeAction()]
        if (
            utilization <= SCALE_IN_UTILIZATION
            and node_count > max(MIN_NODES, observation.replication_factor)
        ):
            return [RemoveNodeAction()]
        return []
