"""Anti-entropy repair.

A background process that periodically samples keys, compares the versions
held by the key's current replica set and pushes the newest version to any
replica that is missing it or holds an older one.  Anti-entropy is the
mechanism that eventually converges replicas that neither foreground traffic
nor read repair happens to touch, and it is what fills new replicas after the
controller raises the replication factor.

The process is budgeted: each round inspects at most ``KEYS_PER_ROUND`` keys
and issues at most ``MAX_REPAIRS_PER_ROUND`` repair writes, so the repair
traffic it adds to the cluster is bounded and measurable (its cost shows up
in experiment E4).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..simulation.engine import Simulator
from .versioning import VersionedValue, compare_versions

__all__ = ["AntiEntropyService"]

#: Seconds between anti-entropy rounds.
INTERVAL = 30.0

#: How many keys are compared per round.
KEYS_PER_ROUND = 256

#: Upper bound on repair writes issued per round.
MAX_REPAIRS_PER_ROUND = 512


class AntiEntropyService:
    """Periodic replica-divergence scanner and repairer."""

    def __init__(
        self,
        simulator: Simulator,
        sample_keys: Callable[[int], Sequence[str]],
        replica_versions: Callable[[str], Dict[str, Optional[VersionedValue]]],
        deliver: Callable[[str, str, VersionedValue], bool],
    ) -> None:
        """Create the service.

        ``sample_keys(n)`` returns up to ``n`` keys to inspect;
        ``replica_versions(key)`` returns the version stored by each replica
        of the key's *current* replica set (``None`` for missing);
        ``deliver(target, key, version)`` issues one background repair write.
        """
        self._sample_keys = sample_keys
        self._replica_versions = replica_versions
        self._deliver = deliver
        self.rounds_run = 0
        self.keys_inspected = 0
        self.divergent_keys_found = 0
        self.repairs_sent = 0
        self._task = simulator.call_every(INTERVAL, self.run_round, label="anti-entropy:round")

    def run_round(self) -> int:
        """Run one anti-entropy round; returns the number of repairs issued."""
        self.rounds_run += 1
        repairs_issued = 0
        keys = self._sample_keys(KEYS_PER_ROUND)
        for key in keys:
            if repairs_issued >= MAX_REPAIRS_PER_ROUND:
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
                if repairs_issued >= MAX_REPAIRS_PER_ROUND:
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
        self._task.stop()
