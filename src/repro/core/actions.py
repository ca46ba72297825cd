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
from typing import Optional

from ..cluster.cluster import Cluster
from ..cluster.errors import NON_NEGATIVE, ClusterError, check
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
        error: Optional[str] = None,
    ) -> ActionOutcome:
        return ActionOutcome(
            action=self.describe(), kind=self.kind, applied=applied, time=time, error=error
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
            cluster.add_node()
        except ClusterError as exc:
            return self._outcome(time, False, error=str(exc))
        return self._outcome(time, True)


class RemoveNodeAction(ReconfigurationAction):
    """Decommission one storage node (scale in)."""

    kind = ActionKind.SCALE_IN

    def describe(self) -> str:
        return "remove_node"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        try:
            cluster.remove_node()
        except ClusterError as exc:
            return self._outcome(time, False, error=str(exc))
        return self._outcome(time, True)


class SetReadConsistencyAction(ReconfigurationAction):
    """Change the default read consistency level."""

    kind = ActionKind.CONSISTENCY

    def __init__(self, level: ConsistencyLevel) -> None:
        self._level = level

    def describe(self) -> str:
        return f"set_read_consistency:{self._level.value}"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        cluster.set_read_consistency(self._level)
        return self._outcome(time, True)


class SetWriteConsistencyAction(ReconfigurationAction):
    """Change the default write consistency level."""

    kind = ActionKind.CONSISTENCY

    def __init__(self, level: ConsistencyLevel) -> None:
        self._level = level

    def describe(self) -> str:
        return f"set_write_consistency:{self._level.value}"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        cluster.set_write_consistency(self._level)
        return self._outcome(time, True)


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
        self._tier = tier
        self._scale = check("SetTierQuotaScaleAction", "scale", scale, NON_NEGATIVE)

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
        if cluster.set_admission_tier_scale(self._tier, self._scale) is None:
            return self._outcome(
                time, False, error="no admission-control stage in pipeline"
            )
        return self._outcome(time, True)


class NoAction(ReconfigurationAction):
    """Explicit "do nothing" decision (recorded for convergence analysis)."""

    kind = ActionKind.NONE

    def describe(self) -> str:
        return "no_action"

    def apply(self, cluster: Cluster, time: float) -> ActionOutcome:
        return self._outcome(time, True)
