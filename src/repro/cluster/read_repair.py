"""Read repair.

When a coordinator collects responses from several replicas for the same read
and their versions disagree, the newest version is pushed asynchronously to
the stale replicas.  Read repair narrows the inconsistency window for *hot*
keys (they get read often, so they get repaired often) at the cost of extra
background write load — one of the trade-offs the controller's planner has to
weigh.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..simulation.engine import Simulator
from .node import ReplicaReadResponse
from .versioning import VersionedValue, compare_versions

__all__ = ["ReadRepairer"]


class ReadRepairer:
    """Detects replica divergence on reads and schedules repair writes."""

    def __init__(
        self,
        simulator: Simulator,
        deliver: Callable[[str, str, VersionedValue], bool],
    ) -> None:
        """``deliver(target_node, key, version)`` issues one background repair write."""
        self._deliver = deliver
        self._rng = simulator.streams.stream("read-repair")
        self.mismatches_detected = 0
        self.repairs_sent = 0
        self.repairs_skipped = 0

    def inspect(
        self, key: str, responses: Sequence[ReplicaReadResponse]
    ) -> bool:
        """Check a set of replica responses; repair stale replicas if needed.

        Returns ``True`` when the responses disagreed (digest mismatch); each
        one is counted in ``mismatches_detected``.
        """
        if len(responses) < 2:
            return False
        newest: Optional[VersionedValue] = None
        for response in responses:
            if compare_versions(response.version, newest) > 0:
                newest = response.version
        if newest is None:
            return False
        stale_nodes = [
            response.node_id
            for response in responses
            if compare_versions(response.version, newest) < 0
        ]
        if not stale_nodes:
            return False
        self.mismatches_detected += 1
        # Every mismatch is repaired, so this draw decides nothing; it stays
        # because the seed pins the "read-repair" stream's draws and the
        # ledger's exact per-operation counts (PERFORMANCE.md rules 1-5).
        self._rng.random()
        for node_id in stale_nodes:
            if self._deliver(node_id, key, newest):
                self.repairs_sent += 1
            else:
                self.repairs_skipped += 1
        return True

    def stats(self) -> Dict[str, int]:
        """Counters for reporting and tests."""
        return {
            "mismatches_detected": self.mismatches_detected,
            "repairs_sent": self.repairs_sent,
            "repairs_skipped": self.repairs_skipped,
        }
