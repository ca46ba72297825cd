"""Value versioning for the eventually consistent store.

The substrate uses last-writer-wins (LWW) resolution on coordinator-assigned
timestamps, the default conflict-resolution strategy of Cassandra-style
stores.  Each write receives a :class:`VersionStamp` that is unique and
totally ordered; replicas keep only the newest version per key.  How stale a
read was is answered from the coordinator's ``AckedVersionRegistry`` by the
``staleness`` stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

__all__ = ["VersionStamp", "VersionedValue", "compare_versions"]


class VersionStamp(NamedTuple):
    """Totally ordered version identifier: (timestamp, coordinator sequence).

    A tuple, so that ordering, equality and hashing — paid on every read
    annotation, replica apply and window update — are the interpreter's own
    tuple operations rather than generated methods (PERFORMANCE.md rule 13).
    """

    timestamp: float
    """Coordinator-assigned commit timestamp (simulation seconds)."""

    sequence: int
    """Tie-breaking sequence number, unique per simulation run."""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.timestamp:.6f}#{self.sequence}"


@dataclass(slots=True)
class VersionedValue:
    """A value together with its version stamp and write metadata."""

    stamp: VersionStamp
    value: Optional[bytes]
    """Payload; ``None`` marks a tombstone (delete)."""

    write_id: int
    """Identifier of the client write that produced this version."""

    size: int = 0
    """Payload size in bytes (used for streaming-cost accounting)."""

    @property
    def is_tombstone(self) -> bool:
        """Whether this version represents a deletion."""
        return self.value is None


def compare_versions(a: Optional[VersionedValue], b: Optional[VersionedValue]) -> int:
    """Three-way comparison of two optional versions under LWW.

    Returns a negative number if ``a`` is older than ``b``, zero if they are
    the same version (or both missing), positive if ``a`` is newer.  A missing
    version is older than any present one.
    """
    if a is None:
        return 0 if b is None else -1
    if b is None:
        return 1
    ours, theirs = a.stamp, b.stamp
    if ours == theirs:
        return 0
    return -1 if ours < theirs else 1
