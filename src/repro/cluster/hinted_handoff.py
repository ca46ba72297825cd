"""Hinted handoff.

When a coordinator cannot reach one of a key's replicas (the node is down or
partitioned away) it stores a *hint* locally: the missed version together
with the identity of the target replica.  A periodic replay task delivers
stored hints once the target is reachable again.  Hinted handoff keeps writes
available under transient failures but stretches the inconsistency window —
the update only reaches the failed replica when the hint is replayed — which
is exactly the consistency/availability tension the paper's controller has to
manage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..simulation.engine import Simulator
from .versioning import VersionedValue

__all__ = ["Hint", "HintedHandoffManager"]

#: Seconds between replay attempts.
REPLAY_INTERVAL = 5.0

#: Upper bound on stored hints (oldest are dropped beyond this).
MAX_HINTS = 100_000

#: Hints older than this are discarded without replay.
HINT_TTL = 3600.0

#: Maximum hints replayed towards a single node per replay round.
REPLAY_BATCH = 64


@dataclass
class Hint:
    """One missed write destined for a specific replica."""

    target_node: str
    key: str
    version: VersionedValue
    created_at: float


class HintedHandoffManager:
    """Stores hints and replays them when targets become reachable."""

    def __init__(
        self,
        simulator: Simulator,
        deliver: Callable[[str, str, VersionedValue], bool],
        is_reachable: Callable[[str], bool],
    ) -> None:
        """Create the manager.

        ``deliver(target_node, key, version)`` performs the actual background
        write and returns ``True`` when it was dispatched; ``is_reachable``
        answers whether a target can currently be contacted.  Both callbacks
        are wired in by :class:`repro.cluster.cluster.Cluster`.
        """
        self._simulator = simulator
        self._deliver = deliver
        self._is_reachable = is_reachable
        self._hints: List[Hint] = []
        self.hints_stored = 0
        self.hints_replayed = 0
        self.hints_expired = 0
        self.hints_dropped = 0
        self._task = simulator.call_every(
            REPLAY_INTERVAL, self._replay_round, label="hinted-handoff:replay"
        )

    @property
    def pending(self) -> int:
        """Number of hints currently waiting for replay."""
        return len(self._hints)

    def store(self, target_node: str, key: str, version: VersionedValue) -> None:
        """Store a hint for a replica that could not be reached."""
        if len(self._hints) >= MAX_HINTS:
            self._hints.pop(0)
            self.hints_dropped += 1
        self._hints.append(
            Hint(
                target_node=target_node,
                key=key,
                version=version,
                created_at=self._simulator.now,
            )
        )
        self.hints_stored += 1

    def discard_for_node(self, node_id: str) -> int:
        """Drop all hints targeted at a node (e.g. after decommissioning)."""
        before = len(self._hints)
        self._hints = [hint for hint in self._hints if hint.target_node != node_id]
        dropped = before - len(self._hints)
        self.hints_dropped += dropped
        return dropped

    def _replay_round(self) -> None:
        if not self._hints:
            return
        now = self._simulator.now
        remaining: List[Hint] = []
        replayed_per_node: Dict[str, int] = {}
        for hint in self._hints:
            if now - hint.created_at > HINT_TTL:
                self.hints_expired += 1
                continue
            count = replayed_per_node.get(hint.target_node, 0)
            if count >= REPLAY_BATCH or not self._is_reachable(hint.target_node):
                remaining.append(hint)
                continue
            if self._deliver(hint.target_node, hint.key, hint.version):
                self.hints_replayed += 1
                replayed_per_node[hint.target_node] = count + 1
            else:
                remaining.append(hint)
        self._hints = remaining

    def stats(self) -> Dict[str, int]:
        """Counters for reporting and tests."""
        return {
            "pending": len(self._hints),
            "stored": self.hints_stored,
            "replayed": self.hints_replayed,
            "expired": self.hints_expired,
            "dropped": self.hints_dropped,
        }

    def stop(self) -> None:
        """Stop the replay task."""
        self._task.stop()
