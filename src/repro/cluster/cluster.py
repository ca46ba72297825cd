"""Cluster facade: the eventually consistent store as one object.

:class:`Cluster` wires together the ring, the nodes, the coordinator, the
membership service, hinted handoff, read repair, anti-entropy and the data
streamer, and exposes

* a **client API** (:meth:`read` / :meth:`write`) used by the workload and
  by the monitoring probes,
* a **reconfiguration API** (consistency levels, replication factor,
  add/remove/crash/recover node) used by the autonomous controller, and
* an **observation API** (listeners and metric snapshots) used by the
  monitoring subsystem, the ground-truth tracker and the cost model.

The facade deliberately mirrors the operational surface of a real
Cassandra-style cluster: the controller can only pull the levers a real
operator could pull, and only sees what a real operator could measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..middleware import (
    DEFAULT_REQUEST_PIPELINE,
    TENANT_HINT,
    MiddlewareBuildContext,
    MiddlewarePipeline,
    build_pipeline,
    is_registered,
)
from ..simulation.engine import Simulator
from ..simulation.network import NetworkModel
from .anti_entropy import AntiEntropyService
from .coordinator import DEFAULT_VALUE_SIZE, RequestCoordinator
from .errors import ConfigurationError, Settings, TopologyError, UnknownNodeError, at_least
from .hinted_handoff import HintedHandoffManager
from .membership import MembershipService
from .node import NodeConfig, StorageNode
from .read_repair import ReadRepairer
from .rebalance import DataStreamer, StreamSession
from .ring import HashRing
from .storage import StorageEngine
from .types import (
    ConsistencyLevel,
    OperationResult,
    OperationType,
    ReadResult,
    WriteResult,
)
from .versioning import VersionStamp, VersionedValue, compare_versions

__all__ = ["ClusterConfig", "Cluster", "ClusterListener"]


def _discard(result: OperationResult) -> None:
    """Completion callback for a caller that does not want the result."""


#: Virtual nodes each storage node places on the ring.
VIRTUAL_NODES = 32


@dataclass
class ClusterConfig(Settings):
    """Static configuration of the store and its initial deployment."""

    initial_nodes: int = at_least(1, 3)
    replication_factor: int = at_least(1, 3)
    read_consistency: ConsistencyLevel = ConsistencyLevel.ONE
    write_consistency: ConsistencyLevel = ConsistencyLevel.ONE
    node: NodeConfig = field(default_factory=NodeConfig)
    max_nodes: int = at_least(1, 32)
    min_nodes: int = at_least(1, 1)

    middleware: Optional[Sequence[str]] = None
    """Ordered request-pipeline middleware names (``None`` = the default
    stack, which reproduces the classic coordinator bit-identically)."""

    middleware_params: Dict[str, Dict[str, object]] = field(default_factory=dict)
    """Per-middleware construction parameters, keyed by middleware name."""

    def pipeline_names(self) -> Tuple[str, ...]:
        """The middleware names this configuration resolves to."""
        if self.middleware is None:
            return DEFAULT_REQUEST_PIPELINE
        return tuple(self.middleware)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for inconsistent settings."""
        unknown = [name for name in self.pipeline_names() if not is_registered(name)]
        if unknown:
            raise ConfigurationError(
                "unknown middleware name(s) "
                + ", ".join(repr(name) for name in unknown)
                + "; register them with repro.middleware.register_middleware "
                "before building the cluster"
            )
        if self.replication_factor > self.initial_nodes:
            raise ConfigurationError(
                "replication_factor cannot exceed the number of initial nodes "
                f"({self.replication_factor} > {self.initial_nodes})"
            )
        if self.max_nodes < self.min_nodes:
            raise ConfigurationError("require min_nodes <= max_nodes")
        if not (self.min_nodes <= self.initial_nodes <= self.max_nodes):
            raise ConfigurationError(
                "initial_nodes must lie within [min_nodes, max_nodes]"
            )


class ClusterListener:
    """Base class for cluster observers; override any subset of the hooks."""

    def on_write_acked(
        self, key: str, stamp: VersionStamp, ack_time: float, replica_set: Sequence[str]
    ) -> None:
        """A write became visible to its client."""

    def on_replica_applied(
        self, key: str, stamp: VersionStamp, node_id: str, time: float, background: bool
    ) -> None:
        """A replica applied a version (foreground or background)."""

    def on_operation_completed(self, result: OperationResult) -> None:
        """A client operation finished (``ReadResult`` or ``WriteResult``;
        ``result.is_read`` says which)."""

    def on_topology_changed(self, change: Dict[str, object]) -> None:
        """A node joined, left, crashed or recovered."""

    def on_reconfiguration(self, change: Dict[str, object]) -> None:
        """A configuration knob changed (CL, RF, ...)."""


#: Every hook of :class:`ClusterListener`, in definition order.
_LISTENER_HOOKS = tuple(name for name in vars(ClusterListener) if name.startswith("on_"))


class Cluster:
    """The simulated eventually consistent NoSQL cluster."""

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        self._simulator = simulator
        self.config = config or ClusterConfig()
        self.config.validate()

        self.network = NetworkModel(simulator)
        self.membership = MembershipService(simulator, self.network)
        self.ring = HashRing(VIRTUAL_NODES)
        self.nodes: Dict[str, StorageNode] = {}
        # Sorted ids of the nodes that serve requests, or ``None`` when a
        # node was created or changed state since it was last asked for.
        self._serving_ids: Optional[Tuple[str, ...]] = None
        # Per hook, the bound methods of the listeners that override it, in
        # registration order: a listener is never called for an event it
        # inherits the no-op for (PERFORMANCE.md rule 12).
        self._observers: Dict[str, List[Callable[..., None]]] = {
            hook: [] for hook in _LISTENER_HOOKS
        }
        self._next_node_index = itertools.count(1)
        self._coordinator_cursor = 0
        self._replication_factor = self.config.replication_factor
        self._read_consistency = self.config.read_consistency
        self._write_consistency = self.config.write_consistency
        # Insertion-ordered (a dict, not a set): anti-entropy samples and join
        # catch-up index into this, so its order must not depend on str hashing.
        self._known_keys: Dict[str, None] = {}
        self._known_keys_cache: Tuple[str, ...] = ()
        self._known_keys_dirty = False
        self._rng = simulator.streams.stream("cluster")

        self.coordinator = RequestCoordinator(
            simulator,
            self.network,
            self.ring,
            self.nodes,
            self.membership,
        )
        self.coordinator.on_write_acked = self._handle_write_acked

        self.hinted_handoff = HintedHandoffManager(
            simulator,
            deliver=self._deliver_background_write,
            is_reachable=self._node_reachable,
        )
        self.read_repairer = ReadRepairer(simulator, deliver=self._deliver_background_write)
        self.anti_entropy = AntiEntropyService(
            simulator,
            sample_keys=self._sample_keys,
            replica_versions=self.replica_versions,
            deliver=self._deliver_background_write,
        )
        self.streamer = DataStreamer(simulator, self.network)

        # Build the request pipeline from the registry now that every service
        # a middleware may bind to (handoff, repair, coordinator) exists.
        self.pipeline: MiddlewarePipeline = build_pipeline(
            self.config.pipeline_names(),
            MiddlewareBuildContext(
                simulator=simulator, cluster=self, coordinator=self.coordinator
            ),
            params=self.config.middleware_params,
        )
        self.coordinator.set_pipeline(self.pipeline)
        self._preferred_coordinator = (
            self.pipeline.preferred_coordinator
            if self.pipeline.implements("preferred_coordinator")
            else None
        )

        for _ in range(self.config.initial_nodes):
            self._create_node(initial=True)

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener: ClusterListener) -> None:
        """Register an observer of cluster events."""
        for hook, observers in self._observers.items():
            if getattr(type(listener), hook) is not getattr(ClusterListener, hook):
                observers.append(getattr(listener, hook))
        # An apply goes straight to its one observer (the window tracker, in
        # every stock run), through the fan-out from the second on, nowhere
        # (the coordinator's callback stays ``None``) while there is none.
        applied = self._observers["on_replica_applied"]
        if applied:
            self.coordinator.on_replica_applied = (
                applied[0] if len(applied) == 1 else self._handle_replica_applied
            )

    def _handle_write_acked(
        self, key: str, stamp: VersionStamp, ack_time: float, replica_set: Sequence[str]
    ) -> None:
        if key not in self._known_keys:
            self._known_keys[key] = None
            self._known_keys_dirty = True
        for observer in self._observers["on_write_acked"]:
            observer(key, stamp, ack_time, replica_set)

    def _handle_replica_applied(
        self, key: str, stamp: VersionStamp, node_id: str, time: float, background: bool
    ) -> None:
        for observer in self._observers["on_replica_applied"]:
            observer(key, stamp, node_id, time, background)

    @property
    def completion_observers(self) -> List[Callable[[OperationResult], None]]:
        """The live list of ``on_operation_completed`` listeners, in
        registration order.  The ``monitoring-hooks`` stage iterates it for
        every operation a coordinator finishes."""
        return self._observers["on_operation_completed"]

    def _handle_operation_completed(self, result: OperationResult) -> None:
        """Fan out a result that never reached a coordinator's pipeline."""
        for observer in self._observers["on_operation_completed"]:
            observer(result)

    def _notify_topology(self, change: Dict[str, object]) -> None:
        change = dict(change)
        change["time"] = self._simulator.now
        for observer in self._observers["on_topology_changed"]:
            observer(change)

    def _notify_reconfiguration(self, change: Dict[str, object]) -> None:
        change = dict(change)
        change["time"] = self._simulator.now
        for observer in self._observers["on_reconfiguration"]:
            observer(change)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def _create_node(
        self, initial: bool, node_config: Optional[NodeConfig] = None
    ) -> StorageNode:
        node_id = f"node-{next(self._next_node_index)}"
        node = StorageNode(
            self._simulator,
            node_id,
            config=node_config or self.config.node,
            on_state_change=self._node_state_changed,
        )
        self.nodes[node_id] = node
        self._node_state_changed()
        self.membership.register_node(node_id, is_up=lambda n=node: n.is_up)
        if initial:
            self.ring.add_node(node_id)
        return node

    def node_ids(self) -> Tuple[str, ...]:
        """Identifiers of all nodes that are not removed."""
        return tuple(
            sorted(
                node_id
                for node_id, node in self.nodes.items()
                if node.state.value != "removed"
            )
        )

    def _node_state_changed(self) -> None:
        """A node was created or changed state: the serving set is stale."""
        self._serving_ids = None

    def serving_node_ids(self) -> Tuple[str, ...]:
        """Nodes currently able to coordinate and serve requests.

        Asked once per request, so the tuple is kept until a node is created
        or its state setter reports a change — the only two ways it can move.
        """
        serving = self._serving_ids
        if serving is None:
            serving = self._serving_ids = tuple(
                sorted(
                    node_id for node_id, node in self.nodes.items() if node.serves_requests
                )
            )
        return serving

    def live_node_count(self) -> int:
        """Number of nodes currently up (including joining/leaving)."""
        return sum(1 for node in self.nodes.values() if node.is_up)

    # ------------------------------------------------------------------
    # Configuration state
    # ------------------------------------------------------------------
    @property
    def replication_factor(self) -> int:
        """Current replication factor."""
        return self._replication_factor

    @property
    def read_consistency(self) -> ConsistencyLevel:
        """Current default read consistency level."""
        return self._read_consistency

    @property
    def write_consistency(self) -> ConsistencyLevel:
        """Current default write consistency level."""
        return self._write_consistency

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def _pick_coordinator(self) -> Optional[str]:
        serving = self.serving_node_ids()
        if not serving:
            return None
        # Coordinator choice is a pipeline decision when an RTT-aware routing
        # stage is installed; plain round-robin otherwise.
        if self._preferred_coordinator is not None:
            preferred = self._preferred_coordinator(serving)
            if preferred is not None:
                return preferred
        self._coordinator_cursor = (self._coordinator_cursor + 1) % len(serving)
        return serving[self._coordinator_cursor]

    def write(
        self,
        key: str,
        value: bytes = b"",
        on_complete: Optional[Callable[[WriteResult], None]] = None,
        consistency_level: Optional[ConsistencyLevel] = None,
        operation: OperationType = OperationType.WRITE,
        size: Optional[int] = None,
        hints: Optional[Dict[str, object]] = None,
    ) -> None:
        """Issue a client write; the result is delivered to ``on_complete``.

        ``hints`` are per-request annotations the middleware pipeline may act
        on (e.g. a consistency-level override); without a middleware that
        reads them they are carried but ignored.
        """
        level = consistency_level or self._write_consistency
        self._submit(False, key, level, on_complete, operation, hints, value, size)

    def read(
        self,
        key: str,
        on_complete: Optional[Callable[[ReadResult], None]] = None,
        consistency_level: Optional[ConsistencyLevel] = None,
        operation: OperationType = OperationType.READ,
        hints: Optional[Dict[str, object]] = None,
    ) -> None:
        """Issue a client read; the result is delivered to ``on_complete``.

        ``hints`` are per-request annotations for the middleware pipeline
        (see :meth:`write`).
        """
        level = consistency_level or self._read_consistency
        self._submit(True, key, level, on_complete, operation, hints)

    def _submit(
        self,
        is_read: bool,
        key: str,
        level: ConsistencyLevel,
        on_complete: Optional[Callable[[OperationResult], None]],
        operation: OperationType,
        hints: Optional[Mapping[str, object]],
        value: bytes = b"",
        size: Optional[int] = None,
    ) -> None:
        """The front door of every client operation: hand it to a coordinator,
        or fail it here when no node serves requests."""
        callback = on_complete or _discard
        coordinator_id = self._pick_coordinator()
        if coordinator_id is not None:
            self.coordinator.execute(
                is_read,
                key,
                coordinator_id,
                self._replication_factor,
                level,
                callback,
                operation,
                hints,
                value,
                size,
            )
            return
        now = self._simulator.now
        result = (ReadResult if is_read else WriteResult)(
            key=key,
            operation=operation,
            issued_at=now,
            completed_at=now,
            success=False,
            error="no serving nodes",
            consistency_level=level,
        )
        if hints is not None:
            # Per-tenant accounting must see the outage too.
            result.tenant = hints.get(TENANT_HINT)
        self._handle_operation_completed(result)
        callback(result)

    def preload(self, items: Dict[str, bytes], sizes: Optional[Dict[str, int]] = None) -> int:
        """Load records directly into every replica, bypassing the data path.

        Used to populate the store before an experiment starts (the
        equivalent of YCSB's load phase).  Each record is applied to all of
        its replicas with a version stamped at the current time, and is
        registered as acknowledged so that later reads have a ground-truth
        reference.  Returns the number of records loaded.
        """
        loaded = 0
        now = self._simulator.now
        sizes = sizes or {}
        next_sequence = self.coordinator.next_sequence
        preference_list = self.ring.preference_list
        replication_factor = self._replication_factor
        record_ack = self.coordinator.acked_registry.record_ack
        known_keys = self._known_keys
        # Nothing changes state during a load, so the storages of the live
        # replicas are resolved once per distinct preference list, not once
        # per record and replica.
        live_storages: Dict[Tuple[str, ...], Tuple[StorageEngine, ...]] = {}
        for key, value in items.items():
            stamp = VersionStamp(now, next_sequence())
            version = VersionedValue(
                stamp, value, write_id=0, size=sizes.get(key, DEFAULT_VALUE_SIZE)
            )
            replicas = preference_list(key, replication_factor)
            if not replicas:
                continue
            storages = live_storages.get(replicas)
            if storages is None:
                storages = live_storages[replicas] = tuple(
                    self.nodes[node_id].storage
                    for node_id in replicas
                    if self._node_reachable(node_id)
                )
            for storage in storages:
                storage.apply(key, version)
            record_ack(key, stamp, now)
            known_keys[key] = None
            loaded += 1
        self._known_keys_dirty = True
        return loaded

    # ------------------------------------------------------------------
    # Background write plumbing (hints, repairs, anti-entropy)
    # ------------------------------------------------------------------
    def _deliver_background_write(
        self, target_node: str, key: str, version: VersionedValue
    ) -> bool:
        source = self._pick_coordinator() or target_node
        return self.coordinator.background_write(target_node, key, version, source)

    def _node_reachable(self, node_id: str) -> bool:
        node = self.nodes.get(node_id)
        return node is not None and node.is_up

    def _sample_keys(self, count: int) -> Sequence[str]:
        keys = self._sample_all_keys()
        if count >= len(keys):
            return keys
        indexes = self._rng.choice(len(keys), size=count, replace=False)
        return tuple(keys[int(i)] for i in indexes)

    def replica_versions(self, key: str) -> Dict[str, Optional[VersionedValue]]:
        """Versions of ``key`` held by its current replica set (None = missing)."""
        versions: Dict[str, Optional[VersionedValue]] = {}
        for node_id in self.ring.preference_list(key, self._replication_factor):
            node = self.nodes.get(node_id)
            if node is None or not node.is_up:
                continue
            versions[node_id] = node.storage.peek(key)
        return versions

    # ------------------------------------------------------------------
    # Reconfiguration API (the controller's levers)
    # ------------------------------------------------------------------
    def set_read_consistency(self, level: ConsistencyLevel) -> None:
        """Change the default read consistency level."""
        if level is self._read_consistency:
            return
        previous = self._read_consistency
        self._read_consistency = level
        self._notify_reconfiguration(
            {"action": "set_read_consistency", "from": previous.value, "to": level.value}
        )

    def set_write_consistency(self, level: ConsistencyLevel) -> None:
        """Change the default write consistency level."""
        if level is self._write_consistency:
            return
        previous = self._write_consistency
        self._write_consistency = level
        self._notify_reconfiguration(
            {"action": "set_write_consistency", "from": previous.value, "to": level.value}
        )

    def set_replication_factor(self, replication_factor: int) -> Optional[StreamSession]:
        """Change the replication factor; returns the fill session if one started."""
        if replication_factor < 1:
            raise ConfigurationError("replication_factor must be >= 1")
        if replication_factor > self.ring.size:
            raise ConfigurationError(
                "replication_factor cannot exceed the number of ring members "
                f"({replication_factor} > {self.ring.size})"
            )
        if replication_factor == self._replication_factor:
            return None
        previous = self._replication_factor
        keys = self._sample_all_keys()
        self._replication_factor = replication_factor
        self._notify_reconfiguration(
            {
                "action": "set_replication_factor",
                "from": previous,
                "to": replication_factor,
            }
        )
        if replication_factor > previous:
            tasks = self.streamer.plan_replication_increase(
                previous, replication_factor, self.ring, self.nodes, keys
            )
            return self.streamer.run(
                tasks,
                self.nodes,
                on_complete=lambda session: self._notify_topology(
                    {
                        "event": "replication_fill_complete",
                        "keys_streamed": session.keys_streamed,
                        "duration": session.duration,
                    }
                ),
                on_version_applied=self._streamed_version_applied,
                label="rf-fill",
            )
        self.streamer.cleanup_replication_decrease(
            previous, replication_factor, self.ring, self.nodes, keys
        )
        return None

    def set_admission_tier_scale(
        self, tier: str, scale: float
    ) -> Optional[Tuple[float, float]]:
        """Scale one SLO tier's admission quota (controller lever).

        Returns ``(previous_scale, applied_scale)``, or ``None`` when the
        request pipeline carries no ``admission-control`` stage (the lever
        does not exist in this deployment).
        """
        stage = self.pipeline.get("admission-control")
        if stage is None or not hasattr(stage, "set_tier_scale"):
            return None
        previous = stage.tier_scale(tier)
        applied = stage.set_tier_scale(tier, scale)
        if applied != previous:
            self._notify_reconfiguration(
                {
                    "action": "set_tier_quota_scale",
                    "tier": tier,
                    "from": previous,
                    "to": applied,
                }
            )
        return previous, applied

    def add_node(
        self, node_config: Optional[NodeConfig] = None
    ) -> Tuple[str, Optional[StreamSession]]:
        """Provision a new node; it joins the ring once bootstrap streaming ends.

        Returns the new node id and the bootstrap streaming session (``None``
        when the cluster holds no data yet, in which case the join is
        immediate).
        """
        if len(self.node_ids()) >= self.config.max_nodes:
            raise TopologyError(f"cluster is at max_nodes={self.config.max_nodes}")
        node = self._create_node(initial=False, node_config=node_config)
        from .types import NodeState

        node.state = NodeState.JOINING
        self._notify_topology({"event": "node_joining", "node": node.node_id})

        new_ring = self.ring.copy()
        new_ring.add_node(node.node_id)
        keys = self._sample_all_keys()
        tasks = self.streamer.plan_join(
            node.node_id, self.ring, new_ring, self._replication_factor, self.nodes, keys
        )

        def _join_complete(session: StreamSession) -> None:
            self._finish_join(node.node_id, session)

        if not tasks:
            self._finish_join(node.node_id, None)
            return node.node_id, None
        session = self.streamer.run(
            tasks,
            self.nodes,
            on_complete=_join_complete,
            on_version_applied=self._streamed_version_applied,
            label=f"join:{node.node_id}",
        )
        return node.node_id, session

    def _finish_join(self, node_id: str, session: Optional[StreamSession]) -> None:
        """Second bootstrap phase: stream the delta the snapshot missed.

        Bootstrap streaming copies a *snapshot* of the key space; writes that
        arrived while the snapshot was being streamed only reached the old
        replica set (the joining node is not on the ring yet).  Real
        Cassandra covers this hole by forwarding writes for pending ranges to
        the bootstrapping node; we approximate the same guarantee with a
        catch-up streaming phase over the missed keys.  The node only starts
        serving requests once the catch-up completes, so a freshly joined
        node is not a source of stale reads.
        """
        node = self.nodes.get(node_id)
        if node is None or not node.is_up:
            return
        bootstrap_keys = session.keys_streamed if session else 0
        bootstrap_duration = session.duration if session else 0.0

        catch_up_tasks = self._plan_catch_up(node_id)
        if not catch_up_tasks:
            self._complete_join(node_id, bootstrap_keys, bootstrap_duration, catch_up_keys=0)
            return
        self.streamer.run(
            catch_up_tasks,
            self.nodes,
            on_complete=lambda catch_up_session: self._complete_join(
                node_id,
                bootstrap_keys,
                bootstrap_duration,
                catch_up_keys=catch_up_session.keys_streamed,
            ),
            on_version_applied=self._streamed_version_applied,
            label=f"catchup:{node_id}",
        )

    def _plan_catch_up(self, node_id: str) -> List["StreamTask"]:
        """Stream tasks for keys the new node will own but is missing/stale on."""
        from .rebalance import StreamTask

        node = self.nodes.get(node_id)
        if node is None or not node.is_up:
            return []
        future_ring = self.ring if node_id in self.ring else self.ring.copy()
        if node_id not in future_ring:
            future_ring.add_node(node_id)
        per_source: Dict[str, List[str]] = {}
        for key in self._sample_all_keys():
            if node_id not in future_ring.preference_list(key, self._replication_factor):
                continue
            newest: Optional[VersionedValue] = None
            source: Optional[str] = None
            for replica_id in self.ring.preference_list(key, self._replication_factor):
                replica = self.nodes.get(replica_id)
                if replica is None or not replica.is_up:
                    continue
                version = replica.storage.peek(key)
                if compare_versions(version, newest) > 0:
                    newest = version
                    source = replica_id
            if newest is None or source is None:
                continue
            if compare_versions(node.storage.peek(key), newest) < 0:
                per_source.setdefault(source, []).append(key)
        return [
            StreamTask(source=source, target=node_id, keys=keys)
            for source, keys in sorted(per_source.items())
        ]

    def _complete_join(
        self, node_id: str, bootstrap_keys: int, bootstrap_duration: float, catch_up_keys: int
    ) -> None:
        node = self.nodes.get(node_id)
        if node is None or not node.is_up:
            return
        from .types import NodeState

        if node_id not in self.ring:
            self.ring.add_node(node_id)
        node.state = NodeState.NORMAL
        self._notify_topology(
            {
                "event": "node_joined",
                "node": node_id,
                "keys_streamed": bootstrap_keys,
                "bootstrap_duration": bootstrap_duration,
                "catch_up_keys": catch_up_keys,
            }
        )

    def remove_node(self, node_id: Optional[str] = None) -> Tuple[str, Optional[StreamSession]]:
        """Decommission a node (least-loaded by default); data is streamed off first."""
        serving = [
            nid for nid, node in self.nodes.items() if node.serves_requests and nid in self.ring
        ]
        if len(serving) <= max(self.config.min_nodes, self._replication_factor):
            raise TopologyError(
                "cannot remove a node: cluster is at its minimum size for "
                f"RF={self._replication_factor}"
            )
        if node_id is None:
            node_id = max(serving)
        if node_id not in self.nodes:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        node = self.nodes[node_id]
        from .types import NodeState

        node.state = NodeState.LEAVING
        self._notify_topology({"event": "node_leaving", "node": node_id})

        new_ring = self.ring.copy()
        new_ring.remove_node(node_id)
        tasks = self.streamer.plan_leave(
            node_id, self.ring, new_ring, self._replication_factor, self.nodes
        )

        def _leave_complete(session: StreamSession) -> None:
            self._finish_leave(node_id, session)

        if not tasks:
            self._finish_leave(node_id, None)
            return node_id, None
        session = self.streamer.run(
            tasks,
            self.nodes,
            on_complete=_leave_complete,
            on_version_applied=self._streamed_version_applied,
            label=f"leave:{node_id}",
        )
        return node_id, session

    def _finish_leave(self, node_id: str, session: Optional[StreamSession]) -> None:
        node = self.nodes.get(node_id)
        if node is None:
            return
        if node_id in self.ring:
            self.ring.remove_node(node_id)
        node.mark_removed()
        self.membership.deregister_node(node_id)
        self.hinted_handoff.discard_for_node(node_id)
        # Routing state must not outlive the node: stale RTT estimates for a
        # decommissioned replica would keep skewing rankings and cutoffs.
        self.pipeline.on_node_removed(node_id)
        self._notify_topology(
            {
                "event": "node_removed",
                "node": node_id,
                "keys_streamed": session.keys_streamed if session else 0,
                "drain_duration": session.duration if session else 0.0,
            }
        )

    def crash_node(self, node_id: str) -> None:
        """Crash-stop a node (fault injection); a no-op once it is removed."""
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        if node.mark_down():
            self._notify_topology({"event": "node_down", "node": node_id})

    def recover_node(self, node_id: str) -> None:
        """Recover a crashed node; hinted handoff replays missed writes.

        A no-op for a removed node: decommissioning is final.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        if node.mark_up():
            self._notify_topology({"event": "node_up", "node": node_id})

    def set_node_fault_factor(self, node_id: str, factor: float) -> None:
        """Scale a node's effective service rate (gray-failure injection).

        A factor below 1.0 models a fail-slow node: it keeps answering, just
        slower.  The factor composes multiplicatively with interference (which
        drives the separate ``speed_factor``) and survives crash/recover — a
        node that crashes while degraded comes back degraded until the fault
        engine restores it.  ``factor == 1.0`` restores full health.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        node.server.set_fault_factor(factor)
        if factor == 1.0:
            self._notify_topology({"event": "node_restored", "node": node_id})
        else:
            self._notify_topology(
                {"event": "node_degraded", "node": node_id, "factor": factor}
            )

    def _streamed_version_applied(
        self, key: str, stamp: VersionStamp, node_id: str, time: float
    ) -> None:
        self._handle_replica_applied(key, stamp, node_id, time, True)

    def _sample_all_keys(self) -> Tuple[str, ...]:
        if self._known_keys_dirty or not self._known_keys_cache:
            self._known_keys_cache = tuple(self._known_keys)
            self._known_keys_dirty = False
        return self._known_keys_cache

    # ------------------------------------------------------------------
    # Observation API
    # ------------------------------------------------------------------
    def node_metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-node metric snapshots (utilisation sampled and reset)."""
        metrics: Dict[str, Dict[str, float]] = {}
        for node_id, node in self.nodes.items():
            if node.state.value == "removed":
                continue
            node.sample_utilization()
            metrics[node_id] = node.metrics()
        return metrics

    def cluster_metrics(self) -> Dict[str, float]:
        """Cluster-level metric snapshot used by the monitoring subsystem."""
        serving = self.serving_node_ids()
        utilizations = [
            self.nodes[node_id].utilization for node_id in serving if node_id in self.nodes
        ]
        mean_util = sum(utilizations) / len(utilizations) if utilizations else 0.0
        max_util = max(utilizations) if utilizations else 0.0
        dropped_mutations = sum(
            node.dropped_mutations
            for node in self.nodes.values()
            if node.state.value != "removed"
        )
        return {
            "node_count": float(len(serving)),
            "ring_size": float(self.ring.size),
            "live_nodes": float(self.live_node_count()),
            "dropped_mutations": float(dropped_mutations),
            "replication_factor": float(self._replication_factor),
            "read_consistency_acks": float(
                self._read_consistency.required_acks(self._replication_factor)
            ),
            "write_consistency_acks": float(
                self._write_consistency.required_acks(self._replication_factor)
            ),
            "mean_utilization": mean_util,
            "max_utilization": max_util,
            "pending_hints": float(self.hinted_handoff.pending),
            "active_stream_sessions": float(self.streamer.active_sessions),
            "network_congestion": self.network.congestion_factor,
            "unavailable_errors": float(self.coordinator.unavailable_errors),
            "timeouts": float(self.coordinator.timeouts),
        }

    def configuration_snapshot(self) -> Dict[str, object]:
        """The currently active configuration (for reports and the controller)."""
        snapshot: Dict[str, object] = {
            "node_count": len(self.serving_node_ids()),
            "replication_factor": self._replication_factor,
            "read_consistency": self._read_consistency.value,
            "write_consistency": self._write_consistency.value,
            "middleware": list(self.pipeline.names()),
        }
        admission = self.pipeline.get("admission-control")
        if admission is not None and hasattr(admission, "tier_scales"):
            snapshot["admission_tier_scales"] = admission.tier_scales()
        return snapshot
