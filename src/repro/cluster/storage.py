"""Per-node storage engine.

A deliberately small model of an LSM-style storage engine: an in-memory
key→version map ("memtable") with LWW conflict resolution, byte accounting
used by the rebalancer and the memory-pressure model, and counters the
monitoring subsystem exposes as node metrics.  It keeps the newest version of
a key and nothing else: a per-record structure needs a reader
(PERFORMANCE.md rule 17).

The storage engine itself is synchronous — all asynchrony (queueing, network)
lives in :class:`repro.cluster.node.StorageNode`, which wraps calls to this
class in service requests on the node's queueing server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .versioning import VersionedValue

__all__ = ["StorageEngine", "StorageStats"]


@dataclass
class StorageStats:
    """Counters describing one storage engine's activity."""

    bytes_stored: int = 0
    writes_applied: int = 0
    writes_superseded: int = 0
    tombstones: int = 0


class StorageEngine:
    """Versioned key-value storage for a single node."""

    def __init__(self, _node_id: str) -> None:
        # Callers name the owning node; an engine keeps nothing per node.
        self._data: Dict[str, VersionedValue] = {}
        self.stats = StorageStats()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def apply(self, key: str, version: VersionedValue) -> bool:
        """Apply a replicated write.

        Returns ``True`` when the version became the newest one for the key,
        ``False`` when it was superseded by an already-present newer version
        (LWW keeps the newest version only).
        """
        current = self._data.get(key)
        stats = self.stats
        # The first version of a key (all a bulk load consists of) has
        # nothing to be compared with.
        if current is not None:
            if version.stamp <= current.stamp:
                stats.writes_superseded += 1
                return False
            stats.bytes_stored -= current.size
            if current.value is None:
                stats.tombstones -= 1

        self._data[key] = version
        stats.bytes_stored += version.size
        stats.writes_applied += 1
        if version.value is None:
            stats.tombstones += 1
        return True

    def remove(self, key: str) -> None:
        """Physically drop a key (used when streaming data off the node)."""
        current = self._data.pop(key, None)
        if current is not None:
            self.stats.bytes_stored -= current.size
            if current.is_tombstone:
                self.stats.tombstones -= 1

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[VersionedValue]:
        """Return the newest locally known version of ``key`` (or ``None``)."""
        return self._data.get(key)

    # ------------------------------------------------------------------
    # Bulk operations (rebalancing, anti-entropy)
    # ------------------------------------------------------------------
    def keys(self) -> Tuple[str, ...]:
        """All keys currently stored (snapshot)."""
        return tuple(self._data.keys())

    def bytes_stored(self) -> int:
        """Total payload bytes currently stored."""
        return self.stats.bytes_stored

    def key_count(self) -> int:
        """Number of keys currently stored."""
        return len(self._data)
