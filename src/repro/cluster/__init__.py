"""Eventually consistent NoSQL store substrate.

A Dynamo/Cassandra-style replicated key-value store built on the discrete
event simulator: consistent-hash placement, per-operation tunable consistency
levels, asynchronous replication, hinted handoff, read repair, anti-entropy,
gossip membership and data rebalancing on topology changes.
"""

from .anti_entropy import AntiEntropyConfig, AntiEntropyService
from .cluster import Cluster, ClusterConfig, ClusterListener
from .coordinator import AckedVersionRegistry, CoordinatorConfig, RequestCoordinator
from .errors import (
    ClusterError,
    ConfigurationError,
    TopologyError,
    UnknownNodeError,
)
from .faults import FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan, FaultSpec
from .hinted_handoff import Hint, HintedHandoffConfig, HintedHandoffManager
from .membership import GossipAgent, MembershipConfig, MembershipService, MembershipView
from .node import NodeConfig, ReplicaReadResponse, ReplicaWriteResponse, StorageNode
from .read_repair import ReadRepairConfig, ReadRepairer
from .rebalance import DataStreamer, StreamingConfig, StreamSession, StreamTask
from .ring import HashRing, hash_key
from .storage import StorageEngine, StorageStats
from .types import (
    ConsistencyLevel,
    NodeState,
    OperationType,
    OperationResult,
    ReadResult,
    WriteResult,
)
from .versioning import VersionStamp, VersionedValue, compare_versions

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterListener",
    "ClusterError",
    "ConfigurationError",
    "TopologyError",
    "UnknownNodeError",
    "ConsistencyLevel",
    "NodeState",
    "OperationType",
    "OperationResult",
    "ReadResult",
    "WriteResult",
    "NodeConfig",
    "StorageNode",
    "ReplicaReadResponse",
    "ReplicaWriteResponse",
    "StorageEngine",
    "StorageStats",
    "HashRing",
    "hash_key",
    "VersionStamp",
    "VersionedValue",
    "compare_versions",
    "RequestCoordinator",
    "CoordinatorConfig",
    "AckedVersionRegistry",
    "MembershipService",
    "MembershipConfig",
    "MembershipView",
    "GossipAgent",
    "HintedHandoffManager",
    "HintedHandoffConfig",
    "Hint",
    "ReadRepairer",
    "ReadRepairConfig",
    "AntiEntropyService",
    "AntiEntropyConfig",
    "DataStreamer",
    "StreamingConfig",
    "StreamSession",
    "StreamTask",
    "FaultInjector",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FAULT_KINDS",
]
