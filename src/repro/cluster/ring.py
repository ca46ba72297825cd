"""Consistent-hash ring with virtual nodes.

Data placement follows the Dynamo/Cassandra model: every physical node owns a
number of virtual nodes (tokens) on a 64-bit hash ring, a key is hashed onto
the ring, and the replica set ("preference list") for a key is the first
``replication_factor`` *distinct physical nodes* encountered walking the ring
clockwise from the key's position.

Virtual nodes keep ownership balanced when the cluster is small and make
topology changes move only ``1/n`` of the key space on average, which is what
keeps the data-rebalancing cost of a scale-out action proportional to the
amount of data a new node must own.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import ConfigurationError, UnknownNodeError

__all__ = ["HashRing", "hash_key"]

_RING_BITS = 64
_RING_SIZE = 2**_RING_BITS


@lru_cache(maxsize=131072)
def hash_key(key: str) -> int:
    """Map an arbitrary string key to a position on the 64-bit ring.

    Memoised: the same record keys are hashed on every operation, and a
    blake2b round-trip per lookup was one of the data plane's largest costs.
    The function is pure, so caching cannot change results.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _token_for(node_id: str, replica_index: int) -> int:
    """Token position of a node's ``replica_index``-th virtual node."""
    return hash_key(f"{node_id}::vnode::{replica_index}")


class HashRing:
    """Consistent-hash ring mapping keys to ordered lists of node ids."""

    def __init__(self, virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ConfigurationError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self._virtual_nodes = virtual_nodes
        self._tokens: List[int] = []
        self._token_owner: Dict[int, str] = {}
        self._nodes: set[str] = set()
        # Replica sets are fully determined by (key, rf) and the current
        # membership, so they are memoised until the next topology change.
        # The cache holds tuples and hands them out as they are.
        self._preference_cache: Dict[Tuple[str, int], Tuple[str, ...]] = {}
        # What a miss reads: the replica set is a function of the token range
        # the key hashes into, so it is tabulated per distinct-owner count on
        # first use and dropped with the cache (PERFORMANCE.md rule 17).
        self._placement_tables: Dict[int, List[Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[str, ...]:
        """Physical node ids currently on the ring, sorted."""
        return tuple(sorted(self._nodes))

    @property
    def size(self) -> int:
        """Number of physical nodes on the ring."""
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add_node(self, node_id: str) -> None:
        """Add a physical node and its virtual nodes to the ring."""
        if node_id in self._nodes:
            raise ConfigurationError(f"node {node_id!r} is already on the ring")
        # Invalidate before mutating so an error mid-insert (token collision)
        # cannot leave stale replica sets cached against the old topology.
        self._preference_cache.clear()
        self._placement_tables.clear()
        self._nodes.add(node_id)
        for i in range(self._virtual_nodes):
            token = _token_for(node_id, i)
            # Token collisions across different nodes are astronomically
            # unlikely with a 64-bit hash but would silently corrupt
            # ownership, so they are rejected explicitly.
            if token in self._token_owner:
                raise ConfigurationError(
                    f"token collision between {node_id!r} and "
                    f"{self._token_owner[token]!r}"
                )
            self._token_owner[token] = node_id
            bisect.insort(self._tokens, token)

    def remove_node(self, node_id: str) -> None:
        """Remove a physical node and all its virtual nodes from the ring."""
        if node_id not in self._nodes:
            raise UnknownNodeError(f"node {node_id!r} is not on the ring")
        self._preference_cache.clear()
        self._placement_tables.clear()
        self._nodes.discard(node_id)
        remaining = [t for t in self._tokens if self._token_owner[t] != node_id]
        for token in set(self._tokens) - set(remaining):
            del self._token_owner[token]
        self._tokens = remaining

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def preference_list(self, key: str, replication_factor: int) -> Tuple[str, ...]:
        """The ordered replica set for ``key`` (first entry is the primary).

        A tuple: the memoised answer itself is handed out, not a copy."""
        if replication_factor < 1:
            raise ConfigurationError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if not self._tokens:
            return ()
        cache_key = (key, replication_factor)
        cached = self._preference_cache.get(cache_key)
        if cached is not None:
            return cached
        count = min(replication_factor, len(self._nodes))
        table = self._placement_tables.get(count)
        if table is None:
            table = self._placement_tables[count] = self._placement_table(count)
        placement = table[bisect.bisect_right(self._tokens, hash_key(key))]
        if len(self._preference_cache) >= 1 << 17:
            # Reset rather than stop admitting: with skewed key popularity
            # the hot keys re-warm immediately, whereas a full cache that
            # never admits again would silently degrade huge key spaces to
            # the uncached path for the rest of the run.
            self._preference_cache.clear()
        self._preference_cache[cache_key] = placement
        return placement

    def _placement_table(self, count: int) -> List[Tuple[str, ...]]:
        """The first ``count`` distinct owners clockwise of every token.

        Entry ``i`` answers the positions in ``[tokens[i - 1], tokens[i])``;
        the extra last entry is entry 0 again, for the positions from the last
        token on, which wrap around.  ``bisect_right(tokens, position)``
        indexes it, and every key of a range gets the same tuple.
        """
        owner_at = [self._token_owner[token] for token in self._tokens]
        size = len(owner_at)
        table: List[Tuple[str, ...]] = []
        for start in range(size):
            owners: List[str] = []
            index = start
            for _ in range(size):
                owner = owner_at[index]
                if owner not in owners:
                    owners.append(owner)
                    if len(owners) == count:
                        break
                index = (index + 1) % size
            table.append(tuple(owners))
        table.append(table[0])
        return table

    def copy(self) -> "HashRing":
        """Deep copy of the ring (used to evaluate hypothetical topologies)."""
        clone = HashRing(self._virtual_nodes)
        for node in self._nodes:
            clone.add_node(node)
        return clone
