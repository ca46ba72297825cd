"""Shared value types of the cluster substrate.

This module defines the vocabulary the rest of the system speaks: consistency
levels, node states, operation kinds and the result records handed back to
clients.  Keeping them in one dependency-free module avoids import cycles
between the coordinator, the nodes and the monitoring subsystem.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, Optional

__all__ = [
    "ConsistencyLevel",
    "NodeState",
    "OperationType",
    "OperationResult",
    "ReadResult",
    "WriteResult",
]


class ConsistencyLevel(enum.Enum):
    """Tunable per-operation consistency level, Cassandra style.

    The numeric value is only used for ordering in reports; the number of
    replicas actually required is computed by :meth:`required_acks` because
    QUORUM depends on the replication factor.
    """

    ANY = "ANY"
    ONE = "ONE"
    TWO = "TWO"
    THREE = "THREE"
    QUORUM = "QUORUM"
    ALL = "ALL"

    def required_acks(self, replication_factor: int) -> int:
        """Number of replica acknowledgements required at this level."""
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self is ConsistencyLevel.ANY:
            return 1
        if self is ConsistencyLevel.ONE:
            return 1
        if self is ConsistencyLevel.TWO:
            return min(2, replication_factor)
        if self is ConsistencyLevel.THREE:
            return min(3, replication_factor)
        if self is ConsistencyLevel.QUORUM:
            return replication_factor // 2 + 1
        if self is ConsistencyLevel.ALL:
            return replication_factor
        raise ValueError(f"unhandled consistency level {self}")

    @property
    def strictness(self) -> int:
        """Coarse ordering used by the planner when stepping CLs up or down."""
        order = {
            ConsistencyLevel.ANY: 0,
            ConsistencyLevel.ONE: 1,
            ConsistencyLevel.TWO: 2,
            ConsistencyLevel.THREE: 3,
            ConsistencyLevel.QUORUM: 4,
            ConsistencyLevel.ALL: 5,
        }
        return order[self]

    @staticmethod
    def ladder() -> tuple["ConsistencyLevel", ...]:
        """Consistency levels in increasing strictness, as the planner steps them."""
        return (
            ConsistencyLevel.ONE,
            ConsistencyLevel.TWO,
            ConsistencyLevel.QUORUM,
            ConsistencyLevel.ALL,
        )

    @staticmethod
    def is_strongly_consistent(
        read_level: "ConsistencyLevel",
        write_level: "ConsistencyLevel",
        replication_factor: int,
    ) -> bool:
        """Whether R + W > RF, i.e. reads always intersect the latest write."""
        r = read_level.required_acks(replication_factor)
        w = write_level.required_acks(replication_factor)
        return r + w > replication_factor


class NodeState(enum.Enum):
    """Lifecycle state of a storage node."""

    JOINING = "joining"
    NORMAL = "normal"
    LEAVING = "leaving"
    DOWN = "down"
    REMOVED = "removed"

    @property
    def serves_requests(self) -> bool:
        """Whether the node participates in reads/writes in this state."""
        return self in (NodeState.NORMAL, NodeState.LEAVING)


class OperationType(enum.Enum):
    """Kind of client operation."""

    READ = "read"
    WRITE = "write"
    PROBE_READ = "probe_read"
    PROBE_WRITE = "probe_write"

    def __init__(self, value: str) -> None:
        # A plain attribute, computed once per member: every listener asks
        # ``is_probe`` of every completed operation.
        self.is_probe: bool = value in ("probe_read", "probe_write")
        """Whether the operation was issued by the monitoring subsystem."""


@dataclass
class OperationResult:
    """Fields common to read and write results."""

    key: str
    operation: OperationType
    issued_at: float
    completed_at: float
    success: bool
    replicas_contacted: int = 0
    replicas_responded: int = 0
    consistency_level: Optional[ConsistencyLevel] = None
    error: Optional[str] = None
    rejected: bool = False
    """True when admission control shed this request before fan-out.

    Rejected operations are *not* failures: they are intentional load
    shedding and are accounted separately everywhere (``WorkloadStats``,
    monitoring snapshots, ``build_report()``) so SLO attainment is not
    polluted by the quota mechanism doing its job.
    """

    tenant: Optional[str] = None
    """Issuing tenant's id (``None`` for tenantless workloads)."""

    latency: float = field(init=False)
    """End-to-end latency observed by the client, in seconds:
    ``max(0.0, completed_at - issued_at)``, written wherever ``completed_at``
    is (construction, ``RequestCoordinator._finish``, ``Cluster._submit``) and
    read as data by every observer (PERFORMANCE.md rule 13)."""

    is_read: ClassVar[bool]
    """Whether this is a read's result; set by each result class, so that
    observers branch on data instead of on ``isinstance``."""

    def __post_init__(self) -> None:
        self.latency = max(0.0, self.completed_at - self.issued_at)


@dataclass
class ReadResult(OperationResult):
    """Result of a read operation."""

    is_read: ClassVar[bool] = True

    value: Optional[bytes] = None
    version_timestamp: Optional[float] = None
    """Commit timestamp of the version returned (None for a miss)."""

    stale: bool = False
    """True when a newer acked version existed at issue time but was not returned."""

    staleness: float = 0.0
    """Age of the returned version relative to the newest acked version (seconds)."""


@dataclass
class WriteResult(OperationResult):
    """Result of a write operation."""

    is_read: ClassVar[bool] = False

    version_timestamp: Optional[float] = None
    """Commit timestamp assigned to this write by its coordinator."""
