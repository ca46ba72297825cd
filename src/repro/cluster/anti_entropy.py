"""Anti-entropy repair.

A background process that periodically samples keys, compares the versions
held by the key's current replica set and pushes the newest version to any
replica that is missing it or holds an older one.  Anti-entropy is the
mechanism that eventually converges replicas that neither foreground traffic
nor read repair happens to touch, and it is what fills new replicas after the
controller raises the replication factor.

The process is budgeted: each round inspects at most ``keys_per_round`` keys
and issues at most ``max_repairs_per_round`` repair writes, so the repair
traffic it adds to the cluster is bounded and measurable (its cost shows up
in experiment E4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..simulation.engine import PeriodicTask, Simulator
from .versioning import VersionedValue, compare_versions

__all__ = ["AntiEntropyConfig", "AntiEntropyService"]


@dataclass
class AntiEntropyConfig:
    """Parameters of the anti-entropy process."""

    enabled: bool = True
    interval: float = 30.0
    """Seconds between anti-entropy rounds."""

    keys_per_round: int = 256
    """How many keys are compared per round."""

    max_repairs_per_round: int = 512
    """Upper bound on repair writes issued per round."""


class AntiEntropyService:
    """Periodic replica-divergence scanner and repairer."""

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[AntiEntropyConfig] = None,
        sample_keys: Optional[Callable[[int], Sequence[str]]] = None,
        replica_versions: Optional[
            Callable[[str], Dict[str, Optional[VersionedValue]]]
        ] = None,
        deliver: Optional[Callable[[str, str, VersionedValue], bool]] = None,
    ) -> None:
        """Create the service.

        ``sample_keys(n)`` returns up to ``n`` keys to inspect;
        ``replica_versions(key)`` returns the version stored by each replica
        of the key's *current* replica set (``None`` for missing);
        ``deliver(target, key, version)`` issues one background repair write.
        """
        self._simulator = simulator
        self._config = config or AntiEntropyConfig()
        self._sample_keys = sample_keys
        self._replica_versions = replica_versions
        self._deliver = deliver
        self._task: Optional[PeriodicTask] = None
        self.rounds_run = 0
        self.keys_inspected = 0
        self.divergent_keys_found = 0
        self.repairs_sent = 0
        if self._config.enabled:
            self._task = simulator.call_every(
                self._config.interval,
                self.run_round,
                label="anti-entropy:round",
            )

    @property
    def config(self) -> AntiEntropyConfig:
        """Anti-entropy configuration in effect."""
        return self._config

    def run_round(self) -> int:
        """Run one anti-entropy round; returns the number of repairs issued."""
        if (
            self._sample_keys is None
            or self._replica_versions is None
            or self._deliver is None
        ):
            return 0
        self.rounds_run += 1
        repairs_issued = 0
        keys = self._sample_keys(self._config.keys_per_round)
        for key in keys:
            if repairs_issued >= self._config.max_repairs_per_round:
                break
            self.keys_inspected += 1
            versions = self._replica_versions(key)
            if not versions:
                continue
            newest: Optional[VersionedValue] = None
            for version in versions.values():
                if compare_versions(version, newest) > 0:
                    newest = version
            if newest is None:
                continue
            stale_targets = [
                node_id
                for node_id, version in versions.items()
                if compare_versions(version, newest) < 0
            ]
            if not stale_targets:
                continue
            self.divergent_keys_found += 1
            for node_id in stale_targets:
                if repairs_issued >= self._config.max_repairs_per_round:
                    break
                if self._deliver(node_id, key, newest):
                    self.repairs_sent += 1
                    repairs_issued += 1
        return repairs_issued

    def stats(self) -> Dict[str, int]:
        """Counters for reporting and tests."""
        return {
            "rounds_run": self.rounds_run,
            "keys_inspected": self.keys_inspected,
            "divergent_keys_found": self.divergent_keys_found,
            "repairs_sent": self.repairs_sent,
        }

    def stop(self) -> None:
        """Stop the periodic rounds."""
        if self._task is not None:
            self._task.stop()
