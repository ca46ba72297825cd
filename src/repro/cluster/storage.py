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
from typing import Dict, Iterator, Optional, Tuple

from .versioning import VersionStamp, VersionedValue

__all__ = ["StorageEngine", "StorageStats"]


@dataclass
class StorageStats:
    """Counters describing one storage engine's activity."""

    keys: int = 0
    bytes_stored: int = 0
    writes_applied: int = 0
    writes_superseded: int = 0
    reads_served: int = 0
    read_misses: int = 0
    tombstones: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the metric collector."""
        return {
            "keys": self.keys,
            "bytes_stored": self.bytes_stored,
            "writes_applied": self.writes_applied,
            "writes_superseded": self.writes_superseded,
            "reads_served": self.reads_served,
            "read_misses": self.read_misses,
            "tombstones": self.tombstones,
        }


class StorageEngine:
    """Versioned key-value storage for a single node."""

    def __init__(self, node_id: str) -> None:
        self._node_id = node_id
        self._data: Dict[str, VersionedValue] = {}
        self.stats = StorageStats()

    @property
    def node_id(self) -> str:
        """Identifier of the owning node."""
        return self._node_id

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
        if current is None:
            # The first version of a key (all a bulk load consists of) has
            # nothing to be compared with.
            stats.keys += 1
        elif version.stamp <= current.stamp:
            stats.writes_superseded += 1
            return False
        else:
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
            self.stats.keys -= 1
            self.stats.bytes_stored -= current.size
            if current.is_tombstone:
                self.stats.tombstones -= 1

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[VersionedValue]:
        """Return the newest locally known version of ``key`` (or ``None``)."""
        version = self._data.get(key)
        if version is None:
            self.stats.read_misses += 1
        else:
            self.stats.reads_served += 1
        return version

    def peek(self, key: str) -> Optional[VersionedValue]:
        """Like :meth:`get` but without touching read counters (internal use)."""
        return self._data.get(key)

    def digest(self, key: str) -> Optional[VersionStamp]:
        """The version stamp of the newest local version (for digest reads)."""
        version = self._data.get(key)
        return version.stamp if version is not None else None

    # ------------------------------------------------------------------
    # Bulk operations (rebalancing, anti-entropy)
    # ------------------------------------------------------------------
    def keys(self) -> Tuple[str, ...]:
        """All keys currently stored (snapshot)."""
        return tuple(self._data.keys())

    def items(self) -> Iterator[Tuple[str, VersionedValue]]:
        """Iterate over ``(key, newest version)`` pairs (snapshot)."""
        return iter(list(self._data.items()))

    def bytes_stored(self) -> int:
        """Total payload bytes currently stored."""
        return self.stats.bytes_stored

    def key_count(self) -> int:
        """Number of keys currently stored."""
        return len(self._data)
