"""The paper's policy: SLA-driven, consistency-aware auto-scaling.

This policy is a thin adapter around :class:`repro.core.planner.SLAPlanner`,
which implements the full decision procedure: derive the consistency levels
the SLA implies from the PBS-style staleness model (RQ2), size the cluster
for the forecast load (the "smart" part), pick the action that addresses the
analyzer's root cause rather than the symptom (RQ3), and fall back to cost
optimisation only when every objective has comfortable headroom (Section 3).
"""

from __future__ import annotations

from typing import Dict, List

from ..actions import ActionKind, ReconfigurationAction
from ..analyzer import AnalysisResult
from ..knowledge import KnowledgeBase
from ..planner import SLAPlanner
from ..sla import SLA
from .base import ScalingPolicy

__all__ = ["SLADrivenPolicy"]


class SLADrivenPolicy(ScalingPolicy):
    """Consistency-aware, SLA-driven policy (the paper's contribution)."""

    name = "sla_driven"

    def __init__(self) -> None:
        self.planner = SLAPlanner()

    def decide(
        self,
        analysis: AnalysisResult,
        knowledge: KnowledgeBase,
        sla: SLA,
        cluster_state: Dict[str, object],
    ) -> List[ReconfigurationAction]:
        actions = self.planner.plan(analysis, knowledge, sla, cluster_state)
        # The planner signals "nothing to do" with an explicit NoAction; the
        # controller does not need to execute it.
        return [action for action in actions if action.kind is not ActionKind.NONE]
