"""Data rebalancing for topology and replication-factor changes.

Re-provisioning actions are not free: a node that joins the ring must receive
its share of the key space before it adds capacity, a node that leaves must
push its data to the remaining replicas first, and raising the replication
factor requires filling the new replicas of every key.  The
:class:`DataStreamer` models this as chunked background transfers that share
the nodes' queues and the network with foreground traffic, so every
reconfiguration temporarily *increases* load before it helps — the transient
the controller must anticipate (research question 3) and that experiment E4
measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..simulation.engine import Simulator
from ..simulation.network import NetworkModel
from .node import StorageNode
from .ring import HashRing
from .versioning import VersionStamp, VersionedValue

__all__ = ["StreamTask", "StreamSession", "DataStreamer"]

#: Keys transferred per streaming chunk.
CHUNK_SIZE = 64
#: Pause between consecutive chunks of the same task (throttling).
INTER_CHUNK_DELAY = 0.05
#: How many (source, target) streams run concurrently per session.
MAX_PARALLEL_TASKS = 2


@dataclass
class StreamTask:
    """All keys that must move from one source node to one target node."""

    source: str
    target: str
    keys: List[str]
    keys_sent: int = 0
    done: bool = False


class StreamSession:
    """Execution state of one rebalancing operation (join, leave, RF change)."""

    def __init__(
        self,
        simulator: Simulator,
        network: NetworkModel,
        nodes: Dict[str, StorageNode],
        tasks: List[StreamTask],
        on_complete: Callable[["StreamSession"], None],
        on_version_applied: Optional[
            Callable[[str, VersionStamp, str, float], None]
        ] = None,
        label: str = "stream",
    ) -> None:
        self._simulator = simulator
        self._network = network
        self._nodes = nodes
        self._on_complete = on_complete
        self._on_version_applied = on_version_applied
        self.label = label
        self.started_at = simulator.now
        self.finished_at: Optional[float] = None
        self.keys_streamed = 0
        self._active = 0
        self._queue: List[StreamTask] = [task for task in tasks if task.keys]

    @property
    def done(self) -> bool:
        """Whether all tasks completed."""
        return self.finished_at is not None

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) duration; 0 while still running."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def start(self) -> None:
        """Begin streaming; completes immediately if there is nothing to move."""
        if not self._queue:
            self._finish()
            return
        for _ in range(min(MAX_PARALLEL_TASKS, len(self._queue))):
            self._start_next_task()

    def _start_next_task(self) -> None:
        if not self._queue:
            return
        task = self._queue.pop(0)
        self._active += 1
        self._stream_next_chunk(task)

    def _stream_next_chunk(self, task: StreamTask) -> None:
        source = self._nodes.get(task.source)
        target = self._nodes.get(task.target)
        if source is None or target is None or not source.is_up or not target.is_up:
            # The endpoint disappeared mid-stream; the anti-entropy process
            # will eventually converge whatever was not copied.
            self._task_done(task)
            return
        start = task.keys_sent
        chunk = task.keys[start : start + CHUNK_SIZE]
        if not chunk:
            self._task_done(task)
            return

        def _chunk_read(items: Dict[str, VersionedValue], _read_time: float) -> None:
            self._deliver_chunk(task, items)

        source.stream_out(list(chunk), _chunk_read)
        task.keys_sent += len(chunk)

    def _deliver_chunk(self, task: StreamTask, items: Dict[str, VersionedValue]) -> None:
        target = self._nodes.get(task.target)
        if target is None or not target.is_up:
            self._task_done(task)
            return

        def _apply() -> None:
            def _applied(apply_time: float) -> None:
                self.keys_streamed += len(items)
                if self._on_version_applied is not None:
                    for key, version in items.items():
                        self._on_version_applied(key, version.stamp, task.target, apply_time)
                self._after_chunk(task)

            target.stream_in(items, _applied)

        delivered = self._network.send(task.source, task.target, _apply)
        if not delivered:
            # Partitioned; retry the same chunk after the throttle delay.
            task.keys_sent -= len(items) if items else CHUNK_SIZE
            task.keys_sent = max(0, task.keys_sent)
            self._simulator.schedule_in(
                INTER_CHUNK_DELAY * 10,
                self._stream_next_chunk,
                task,
                label=f"{self.label}:retry",
            )

    def _after_chunk(self, task: StreamTask) -> None:
        if task.keys_sent >= len(task.keys):
            self._task_done(task)
            return
        self._simulator.schedule_in(
            INTER_CHUNK_DELAY,
            self._stream_next_chunk,
            task,
            label=f"{self.label}:chunk",
        )

    def _task_done(self, task: StreamTask) -> None:
        if task.done:
            return
        task.done = True
        self._active -= 1
        if self._queue:
            self._start_next_task()
        elif self._active <= 0:
            self._finish()

    def _finish(self) -> None:
        if self.finished_at is not None:
            return
        self.finished_at = self._simulator.now
        self._on_complete(self)


class DataStreamer:
    """Plans and runs the streaming required by each topology change."""

    def __init__(self, simulator: Simulator, network: NetworkModel) -> None:
        self._simulator = simulator
        self._network = network
        self.sessions: List[StreamSession] = []

    @property
    def active_sessions(self) -> int:
        """Number of streaming sessions still running."""
        return sum(1 for session in self.sessions if not session.done)

    # ------------------------------------------------------------------
    # Planning helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _pick_source(
        candidates: Sequence[str], nodes: Dict[str, StorageNode], key: str
    ) -> Optional[str]:
        for node_id in candidates:
            node = nodes.get(node_id)
            if node is not None and node.is_up and key in node.storage:
                return node_id
        return None

    def plan_join(
        self,
        new_node: str,
        old_ring: HashRing,
        new_ring: HashRing,
        replication_factor: int,
        nodes: Dict[str, StorageNode],
        keys: Sequence[str],
    ) -> List[StreamTask]:
        """Plan the transfers a joining node needs before serving requests."""
        per_source: Dict[str, List[str]] = {}
        for key in keys:
            new_prefs = new_ring.preference_list(key, replication_factor)
            if new_node not in new_prefs:
                continue
            old_prefs = old_ring.preference_list(key, replication_factor)
            source = self._pick_source(old_prefs, nodes, key)
            if source is None or source == new_node:
                continue
            per_source.setdefault(source, []).append(key)
        return [
            StreamTask(source=source, target=new_node, keys=key_list)
            for source, key_list in sorted(per_source.items())
        ]

    def plan_leave(
        self,
        leaving_node: str,
        old_ring: HashRing,
        new_ring: HashRing,
        replication_factor: int,
        nodes: Dict[str, StorageNode],
    ) -> List[StreamTask]:
        """Plan the transfers required before a node can be decommissioned."""
        leaving = nodes.get(leaving_node)
        if leaving is None:
            return []
        per_target: Dict[str, List[str]] = {}
        for key in leaving.storage.keys():
            old_prefs = old_ring.preference_list(key, replication_factor)
            if leaving_node not in old_prefs:
                continue
            new_prefs = new_ring.preference_list(key, replication_factor)
            gaining = [node_id for node_id in new_prefs if node_id not in old_prefs]
            for target in gaining:
                per_target.setdefault(target, []).append(key)
        return [
            StreamTask(source=leaving_node, target=target, keys=key_list)
            for target, key_list in sorted(per_target.items())
        ]

    def plan_replication_increase(
        self,
        old_rf: int,
        new_rf: int,
        ring: HashRing,
        nodes: Dict[str, StorageNode],
        keys: Sequence[str],
    ) -> List[StreamTask]:
        """Plan the fill transfers needed when the replication factor grows."""
        if new_rf <= old_rf:
            return []
        per_pair: Dict[Tuple[str, str], List[str]] = {}
        for key in keys:
            old_prefs = ring.preference_list(key, old_rf)
            new_prefs = ring.preference_list(key, new_rf)
            gaining = [node_id for node_id in new_prefs if node_id not in old_prefs]
            if not gaining:
                continue
            source = self._pick_source(old_prefs, nodes, key)
            if source is None:
                continue
            for target in gaining:
                if target == source:
                    continue
                per_pair.setdefault((source, target), []).append(key)
        return [
            StreamTask(source=source, target=target, keys=key_list)
            for (source, target), key_list in sorted(per_pair.items())
        ]

    def cleanup_replication_decrease(
        self,
        old_rf: int,
        new_rf: int,
        ring: HashRing,
        nodes: Dict[str, StorageNode],
        keys: Sequence[str],
    ) -> int:
        """Drop replicas that are no longer part of a key's replica set.

        Returns the number of copies removed.  This is immediate bookkeeping
        rather than streamed work: dropping local data does not consume
        network bandwidth, and its CPU cost is negligible next to a fill.
        """
        if new_rf >= old_rf:
            return 0
        removed = 0
        for key in keys:
            old_prefs = ring.preference_list(key, old_rf)
            new_prefs = set(ring.preference_list(key, new_rf))
            for node_id in old_prefs:
                if node_id in new_prefs:
                    continue
                node = nodes.get(node_id)
                if node is not None and key in node.storage:
                    node.storage.remove(key)
                    removed += 1
        return removed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: List[StreamTask],
        nodes: Dict[str, StorageNode],
        on_complete: Callable[[StreamSession], None],
        on_version_applied: Optional[
            Callable[[str, VersionStamp, str, float], None]
        ] = None,
        label: str = "stream",
    ) -> StreamSession:
        """Execute a list of stream tasks; returns the session immediately."""
        session = StreamSession(
            self._simulator,
            self._network,
            nodes,
            tasks,
            on_complete=on_complete,
            on_version_applied=on_version_applied,
            label=label,
        )
        self.sessions.append(session)
        session.start()
        return session
