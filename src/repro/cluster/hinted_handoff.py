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
from typing import Callable, Dict, List, Optional

from ..simulation.engine import PeriodicTask, Simulator
from .versioning import VersionedValue

__all__ = ["Hint", "HintedHandoffConfig", "HintedHandoffManager"]


@dataclass
class HintedHandoffConfig:
    """Parameters of hint storage and replay."""

    enabled: bool = True
    replay_interval: float = 5.0
    """Seconds between replay attempts."""

    max_hints: int = 100_000
    """Upper bound on stored hints (oldest are dropped beyond this)."""

    hint_ttl: float = 3600.0
    """Hints older than this are discarded without replay."""

    replay_batch: int = 64
    """Maximum hints replayed towards a single node per replay round."""


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
        config: Optional[HintedHandoffConfig] = None,
        deliver: Optional[Callable[[str, str, VersionedValue], bool]] = None,
        is_reachable: Optional[Callable[[str], bool]] = None,
    ) -> None:
        """Create the manager.

        ``deliver(target_node, key, version)`` performs the actual background
        write and returns ``True`` when it was dispatched; ``is_reachable``
        answers whether a target can currently be contacted.  Both callbacks
        are wired in by :class:`repro.cluster.cluster.Cluster`.
        """
        self._simulator = simulator
        self._config = config or HintedHandoffConfig()
        self._deliver = deliver
        self._is_reachable = is_reachable
        self._hints: List[Hint] = []
        self._task: Optional[PeriodicTask] = None
        self.hints_stored = 0
        self.hints_replayed = 0
        self.hints_expired = 0
        self.hints_dropped = 0
        if self._config.enabled:
            self._task = simulator.call_every(
                self._config.replay_interval,
                self._replay_round,
                label="hinted-handoff:replay",
            )

    @property
    def config(self) -> HintedHandoffConfig:
        """Hinted-handoff configuration in effect."""
        return self._config

    @property
    def pending(self) -> int:
        """Number of hints currently waiting for replay."""
        return len(self._hints)

    def store(self, target_node: str, key: str, version: VersionedValue) -> bool:
        """Store a hint for a replica that could not be reached.

        Returns ``True`` when the hint was stored, ``False`` when it was
        dropped (handoff disabled) — the middleware forwards that verdict so
        hinted-write counters only count hints that actually exist.
        """
        if not self._config.enabled:
            self.hints_dropped += 1
            return False
        if len(self._hints) >= self._config.max_hints:
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
        return True

    def discard_for_node(self, node_id: str) -> int:
        """Drop all hints targeted at a node (e.g. after decommissioning)."""
        before = len(self._hints)
        self._hints = [hint for hint in self._hints if hint.target_node != node_id]
        dropped = before - len(self._hints)
        self.hints_dropped += dropped
        return dropped

    def _replay_round(self) -> None:
        if not self._hints or self._deliver is None or self._is_reachable is None:
            return
        now = self._simulator.now
        remaining: List[Hint] = []
        replayed_per_node: Dict[str, int] = {}
        for hint in self._hints:
            if now - hint.created_at > self._config.hint_ttl:
                self.hints_expired += 1
                continue
            count = replayed_per_node.get(hint.target_node, 0)
            if count >= self._config.replay_batch or not self._is_reachable(hint.target_node):
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
        if self._task is not None:
            self._task.stop()
