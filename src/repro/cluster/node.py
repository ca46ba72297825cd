"""Storage node model.

A :class:`StorageNode` couples a queueing server (its CPU/disk data path), a
:class:`~repro.cluster.storage.StorageEngine` and a lifecycle state.  All
replica-level operations — foreground reads and writes sent by coordinators,
hinted-handoff replays, anti-entropy repairs and rebalancing streams — are
funnelled through the same queue, so background work competes with foreground
work exactly as it does on a real node.  This is what makes reconfiguration
actions visibly *cost* something in experiment E4.

The node also models memory pressure: once the stored bytes exceed a
fixed fraction of the node's memory, service demands grow, reproducing
the "amount of RAM available" parameter the paper lists as an input of its
first research task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..simulation.engine import Simulator
from ..simulation.resources import QueueingServer
from .errors import Settings, positive
from .storage import StorageEngine
from .types import NodeState
from .versioning import VersionedValue

__all__ = ["NodeConfig", "StorageNode", "ReplicaReadResponse", "ReplicaWriteResponse"]

#: Demand multiplier slope per unit of memory fraction above the threshold.
MEMORY_PRESSURE_SLOPE = 2.0

#: Service demand of a read relative to the base demand (1/ops_capacity).
READ_DEMAND_FACTOR = 1.0

#: Service demand of a write relative to the base demand.
WRITE_DEMAND_FACTOR = 1.2

#: Service demand of applying one streamed (bulk) item.
STREAM_DEMAND_FACTOR = 0.35

#: Service demand of applying one read-repair or anti-entropy item.
REPAIR_DEMAND_FACTOR = 0.8

#: Coefficient of variation of per-request service demand.
SERVICE_CV = 0.3

#: Bytes of memory before pressure effects begin.
MEMORY_CAPACITY_BYTES = 512 * 1024 * 1024

#: Fraction of memory above which service demand starts inflating.
MEMORY_PRESSURE_THRESHOLD = 0.7

#: Replicated writes expected to wait longer than this are dropped.
#:
#: This reproduces Cassandra's *dropped mutations* load shedding: under
#: pressure a replica silently discards queued foreground writes instead of
#: serving them late.  The coordinator still acknowledges the write once its
#: consistency level is met by other replicas, so the dropped replica stays
#: stale until read repair, hinted handoff or anti-entropy fixes it — the
#: dominant real-world source of large inconsistency windows under load.
MUTATION_TIMEOUT = 0.25


@dataclass
class NodeConfig(Settings):
    """Capacity of a storage node."""

    ops_capacity: float = positive(800.0)
    """Nominal operations per second the node can serve."""


@dataclass(slots=True)
class ReplicaReadResponse:
    """What a replica returns to a coordinator for a read request."""

    node_id: str
    version: Optional[VersionedValue]


@dataclass(slots=True)
class ReplicaWriteResponse:
    """What a replica returns to a coordinator for a write request."""

    node_id: str
    applied: bool
    applied_at: float


class StorageNode:
    """A single storage node: queueing server + storage engine + state."""

    def __init__(
        self,
        simulator: Simulator,
        node_id: str,
        config: Optional[NodeConfig] = None,
        on_state_change: Optional[Callable[[], None]] = None,
    ) -> None:
        self._simulator = simulator
        self.node_id = node_id
        self.config = config or NodeConfig()
        # The owner (the cluster) is told of every state change, so whatever
        # it derives from node states can be kept as data too.  A node is
        # born in its state: only changes after construction are reported.
        self._on_state_change: Optional[Callable[[], None]] = None
        self._state: Optional[NodeState] = None
        self._enter(NodeState.NORMAL)
        self._on_state_change = on_state_change
        self.server = QueueingServer(
            simulator,
            name=node_id,
            service_rate=1.0,
            service_cv=SERVICE_CV,
        )
        self.storage = StorageEngine(node_id)
        self._base_demand = 1.0 / self.config.ops_capacity
        self.foreground_ops = 0
        self.background_ops = 0
        self.dropped_mutations = 0

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    @property
    def state(self) -> NodeState:
        """Lifecycle state.  Assigning it keeps :attr:`is_up` and
        :attr:`serves_requests` in step and notifies the owner; assignments
        to a ``REMOVED`` node are ignored (decommissioning is final)."""
        return self._state

    @state.setter
    def state(self, state: NodeState) -> None:
        self._enter(state)

    def _enter(self, state: NodeState) -> bool:
        """The one place node state changes; returns whether it did.

        ``is_up`` and ``serves_requests`` are read several times per request,
        so they are plain attributes written here rather than properties
        derived on every read (PERFORMANCE.md rule 12).  ``REMOVED`` is
        terminal: a decommissioned node is off the ring and out of gossip,
        and no crash, recovery or stray assignment brings it back.
        """
        if self._state is NodeState.REMOVED:
            return False
        self._state = state
        self.is_up = state is not NodeState.DOWN and state is not NodeState.REMOVED
        """Whether the node is alive (possibly joining/leaving, but not down)."""
        self.serves_requests = state.serves_requests
        """Whether coordinators may route foreground requests to this node."""
        if self._on_state_change is not None:
            self._on_state_change()
        return True

    def mark_down(self) -> bool:
        """Crash-stop the node (fault injection / failure experiments).

        Returns whether the transition happened (never for a removed node).
        """
        return self._enter(NodeState.DOWN)

    def mark_up(self) -> bool:
        """Recover the node after a crash; stored data survives (disk).

        Returns ``False`` (and changes nothing) for a removed node.
        """
        return self._enter(NodeState.NORMAL)

    def mark_removed(self) -> None:
        """Final state after decommissioning."""
        self._enter(NodeState.REMOVED)

    # ------------------------------------------------------------------
    # Demand model
    # ------------------------------------------------------------------
    def demand_for(self, factor: float) -> float:
        """Service demand (seconds) for an operation with the given factor,
        memory pressure included in this one frame (PERFORMANCE.md rule 21)."""
        demand = self._base_demand * factor
        excess = self.storage.stats.bytes_stored / MEMORY_CAPACITY_BYTES - MEMORY_PRESSURE_THRESHOLD
        if excess > 0.0:
            return demand * (1.0 + MEMORY_PRESSURE_SLOPE * excess)
        return demand

    @property
    def utilization(self) -> float:
        """Last sampled utilisation of the node's server (0..1)."""
        return self.server.utilization.last_utilization

    def sample_utilization(self) -> float:
        """Sample and reset the utilisation window (called by the monitor)."""
        return self.server.utilization.sample(self._simulator.now)

    # ------------------------------------------------------------------
    # Replica-level operations (invoked after network delivery)
    # ------------------------------------------------------------------
    def replica_write(
        self,
        key: str,
        version: VersionedValue,
        on_done: Callable[[ReplicaWriteResponse], None],
        background: bool = False,
    ) -> None:
        """Apply a replicated write through the node's queue, then call back.

        Foreground writes are subject to mutation dropping: if the queue is
        already so long that the write would wait longer than
        ``MUTATION_TIMEOUT``, the node silently discards it (no apply, no
        acknowledgement).  Background writes (hints, repairs) are never
        dropped so that convergence mechanisms always make progress.
        """
        if not self.is_up:
            return
        if background:
            self.background_ops += 1
            factor = REPAIR_DEMAND_FACTOR
        else:
            if self.server.estimated_wait() > MUTATION_TIMEOUT:
                self.dropped_mutations += 1
                return
            self.foreground_ops += 1
            factor = WRITE_DEMAND_FACTOR
        demand = self.demand_for(factor)

        def _complete(now: float) -> None:
            applied = self.storage.apply(key, version)
            on_done(ReplicaWriteResponse(self.node_id, applied, now))

        self.server.submit(demand, _complete)

    def replica_read(
        self,
        key: str,
        on_done: Callable[[ReplicaReadResponse], None],
    ) -> None:
        """Serve a replica read through the node's queue, then call back."""
        if not self.is_up:
            return
        self.foreground_ops += 1
        demand = self.demand_for(READ_DEMAND_FACTOR)

        def _complete(_now: float) -> None:
            version = self.storage.get(key)
            on_done(ReplicaReadResponse(self.node_id, version))

        self.server.submit(demand, _complete)

    def stream_in(
        self,
        items: Dict[str, VersionedValue],
        on_done: Callable[[float], None],
    ) -> None:
        """Apply a chunk of streamed items (rebalancing / RF increase)."""
        if not self.is_up:
            return
        self.background_ops += len(items)
        demand = self.demand_for(STREAM_DEMAND_FACTOR) * max(1, len(items))

        def _complete(now: float) -> None:
            for key, version in items.items():
                self.storage.apply(key, version)
            on_done(now)

        self.server.submit(demand, _complete)

    def stream_out(
        self,
        keys: list[str],
        on_done: Callable[[Dict[str, VersionedValue], float], None],
    ) -> None:
        """Read a chunk of items for streaming to another node."""
        if not self.is_up:
            return
        self.background_ops += len(keys)
        demand = self.demand_for(STREAM_DEMAND_FACTOR) * max(1, len(keys))

        def _complete(now: float) -> None:
            items = {}
            for key in keys:
                version = self.storage.peek(key)
                if version is not None:
                    items[key] = version
            on_done(items, now)

        self.server.submit(demand, _complete)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Snapshot of node-level metrics for the monitoring subsystem."""
        return {
            "utilization": self.utilization,
            "queue_length": float(self.server.queue_length),
            "keys": float(self.storage.key_count()),
            "bytes_stored": float(self.storage.bytes_stored()),
            "memory_fraction": self.storage.bytes_stored() / MEMORY_CAPACITY_BYTES,
            "foreground_ops": float(self.foreground_ops),
            "background_ops": float(self.background_ops),
            "dropped_mutations": float(self.dropped_mutations),
            "completed": float(self.server.completed),
            "up": 1.0 if self.is_up else 0.0,
        }
