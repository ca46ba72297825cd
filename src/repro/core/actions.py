"""Reconfiguration actions: the levers the autonomous system can pull.

Section 5 (research question 3) enumerates them: "changing the consistency
levels of the query operations, changing the replication factor, increasing
the amount of nodes".  Each action knows how to apply itself to a cluster and
carries a kind, so the stability guard can apply longer cooldowns to
heavyweight actions.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..cluster.cluster import Cluster
from ..cluster.errors import ClusterError
from ..cluster.types import ConsistencyLevel

__all__ = [
    "ActionKind",
    "ActionOutcome",
    "ReconfigurationAction",
    "AddNodeAction",
    "RemoveNodeAction",
    "SetReadConsistencyAction",
    "SetWriteConsistencyAction",
    "SetTierQuotaScaleAction",
    "NoAction",
]


class ActionKind(enum.Enum):
    """Action families, used for cooldowns and reports."""

    SCALE_OUT = "scale_out"
    SCALE_IN = "scale_in"
    CONSISTENCY = "consistency"
    REPLICATION = "replication"
    ADMISSION = "admission"
    NONE = "none"


@dataclass
class ActionOutcome:
    """What happened when an action was applied."""

    action: str
    kind: ActionKind
    applied: bool
    time: float
    detail: Dict[str, object]
    error: Optional[str] = None


class ReconfigurationAction(abc.ABC):
    """One concrete reconfiguration the controller may execute."""

    kind: ActionKind = ActionKind.NONE

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable description used in logs and reports."""

    @abc.abstractmethod
    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        """Execute the action against the cluster."""

    def _outcome(
        self,
        time: float,
        applied: bool,
        detail: Optional[Dict[str, object]] = None,
        error: Optional[str] = None,
    ) -> ActionOutcome:
        return ActionOutcome(
            action=self.describe(),
            kind=self.kind,
            applied=applied,
            time=time,
            detail=detail or {},
            error=error,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}: {self.describe()}>"


class AddNodeAction(ReconfigurationAction):
    """Provision one extra storage node (scale out)."""

    kind = ActionKind.SCALE_OUT

    def describe(self) -> str:
        return "add_node"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        try:
            node_id, session = cluster.add_node()
        except ClusterError as exc:
            return self._outcome(time, False, error=str(exc))
        detail: Dict[str, object] = {"node": node_id}
        if session is not None:
            detail["bootstrap_keys"] = session.total_keys
        return self._outcome(time, True, detail)


class RemoveNodeAction(ReconfigurationAction):
    """Decommission one storage node (scale in)."""

    kind = ActionKind.SCALE_IN

    def __init__(self, node_id: Optional[str] = None) -> None:
        self._node_id = node_id

    def describe(self) -> str:
        suffix = f":{self._node_id}" if self._node_id else ""
        return f"remove_node{suffix}"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        try:
            node_id, session = cluster.remove_node(self._node_id)
        except ClusterError as exc:
            return self._outcome(time, False, error=str(exc))
        detail: Dict[str, object] = {"node": node_id}
        if session is not None:
            detail["drain_keys"] = session.total_keys
        return self._outcome(time, True, detail)


class SetReadConsistencyAction(ReconfigurationAction):
    """Change the default read consistency level."""

    kind = ActionKind.CONSISTENCY

    def __init__(self, level: ConsistencyLevel) -> None:
        self._level = level

    @property
    def level(self) -> ConsistencyLevel:
        """Target read consistency level."""
        return self._level

    def describe(self) -> str:
        return f"set_read_consistency:{self._level.value}"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        previous = cluster.read_consistency
        cluster.set_read_consistency(self._level)
        return self._outcome(
            time, True, {"from": previous.value, "to": self._level.value}
        )


class SetWriteConsistencyAction(ReconfigurationAction):
    """Change the default write consistency level."""

    kind = ActionKind.CONSISTENCY

    def __init__(self, level: ConsistencyLevel) -> None:
        self._level = level

    @property
    def level(self) -> ConsistencyLevel:
        """Target write consistency level."""
        return self._level

    def describe(self) -> str:
        return f"set_write_consistency:{self._level.value}"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        previous = cluster.write_consistency
        cluster.set_write_consistency(self._level)
        return self._outcome(
            time, True, {"from": previous.value, "to": self._level.value}
        )


class SetTierQuotaScaleAction(ReconfigurationAction):
    """Scale one SLO tier's admission quota (1.0 = configured quota).

    The cheapest overload lever: tightening a low tier's token buckets sheds
    that tier's excess load immediately, without provisioning hardware or
    weakening consistency.  Only applicable when the request pipeline carries
    an ``admission-control`` stage; :meth:`Cluster.set_admission_tier_scale`
    reports ``applied=False`` otherwise.
    """

    kind = ActionKind.ADMISSION

    def __init__(self, tier: str, scale: float) -> None:
        if scale < 0.0:
            raise ValueError("scale must be >= 0")
        self._tier = tier
        self._scale = scale

    @property
    def tier(self) -> str:
        """SLO tier whose quota is scaled."""
        return self._tier

    @property
    def scale(self) -> float:
        """Target quota multiplier."""
        return self._scale

    def describe(self) -> str:
        return f"set_tier_quota_scale:{self._tier}:{self._scale:g}"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        result = cluster.set_admission_tier_scale(self._tier, self._scale)
        if result is None:
            return self._outcome(
                time, False, error="no admission-control stage in pipeline"
            )
        previous, applied_scale = result
        return self._outcome(
            time, True, {"tier": self._tier, "from": previous, "to": applied_scale}
        )


class NoAction(ReconfigurationAction):
    """Explicit "do nothing" decision (recorded for convergence analysis)."""

    kind = ActionKind.NONE

    def describe(self) -> str:
        return "no_action"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        return self._outcome(time, True, {})
