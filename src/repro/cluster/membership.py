"""Gossip-based membership and failure detection.

Every storage node runs a :class:`GossipAgent` that periodically exchanges a
heartbeat digest (node id → heartbeat counter) with a random live peer over
the simulated network.  A node's view of the cluster therefore converges in a
few gossip rounds and — crucially — stops being refreshed for peers that have
crashed or are behind a partition, which is how the timeout-based
:class:`FailureDetector` marks them down.

Coordinators consult the local node's failure detector when selecting
replicas, so availability under failures falls out naturally: with enough
replicas down an operation cannot collect the acknowledgements its
consistency level requires and fails as unavailable, the behaviour the
CAP-discussion in the paper's introduction revolves around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..simulation.engine import PeriodicTask, Simulator
from ..simulation.network import NetworkModel

__all__ = ["MembershipView", "GossipAgent", "MembershipService"]

#: Seconds between gossip rounds initiated by each node.
GOSSIP_INTERVAL = 1.0

#: Seconds without heartbeat progress before a peer is suspected down.
FAILURE_TIMEOUT = 6.0


@dataclass
class _PeerRecord:
    """What one node knows about one peer."""

    heartbeat: int = 0
    last_progress: float = 0.0


class MembershipView:
    """One node's (or the operator's) view of cluster liveness."""

    def __init__(self, owner: str) -> None:
        self._owner = owner
        self._records: Dict[str, _PeerRecord] = {}

    def observe(self, node_id: str, heartbeat: int, now: float) -> None:
        """Merge one heartbeat observation into the view."""
        self.merge_digest({node_id: heartbeat}, now)

    def merge_digest(self, digest: Dict[str, int], now: float) -> None:
        """Merge a full heartbeat digest received from a peer, in one frame."""
        records = self._records
        for node_id, heartbeat in digest.items():
            record = records.get(node_id)
            if record is None:
                records[node_id] = _PeerRecord(heartbeat=heartbeat, last_progress=now)
            elif heartbeat > record.heartbeat:
                record.heartbeat = heartbeat
                record.last_progress = now

    def digest(self) -> Dict[str, int]:
        """The heartbeat digest this node would gossip to a peer."""
        return {node_id: record.heartbeat for node_id, record in self._records.items()}

    def forget(self, node_id: str) -> None:
        """Drop a decommissioned node from the view."""
        self._records.pop(node_id, None)

    def is_alive(self, node_id: str, now: float) -> bool:
        """Whether ``node_id`` is considered alive at time ``now``."""
        if node_id == self._owner:
            return True
        record = self._records.get(node_id)
        if record is None:
            return False
        return (now - record.last_progress) <= FAILURE_TIMEOUT


class GossipAgent:
    """Per-node gossip process."""

    def __init__(
        self,
        simulator: Simulator,
        network: NetworkModel,
        node_id: str,
        peer_lookup: Callable[[], Dict[str, "GossipAgent"]],
        is_up: Callable[[], bool],
    ) -> None:
        self._simulator = simulator
        self._network = network
        self.node_id = node_id
        self._peer_lookup = peer_lookup
        self._is_up = is_up
        self._heartbeat = 0
        self._rng = simulator.streams.stream(f"gossip:{node_id}")
        self.view = MembershipView(node_id)
        self.view.observe(node_id, 0, simulator.now)
        self._task: Optional[PeriodicTask] = simulator.call_every(
            GOSSIP_INTERVAL,
            self._gossip_round,
            label=f"gossip:{node_id}",
            jitter=GOSSIP_INTERVAL * 0.1,
        )

    @property
    def heartbeat(self) -> int:
        """This node's own heartbeat counter."""
        return self._heartbeat

    def stop(self) -> None:
        """Stop gossiping (node decommissioned)."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _gossip_round(self) -> None:
        if not self._is_up():
            return
        now = self._simulator.now
        self._heartbeat += 1
        self.view.observe(self.node_id, self._heartbeat, now)
        peers = self._peer_lookup()
        candidates = [pid for pid in peers if pid != self.node_id]
        if not candidates:
            return
        # One peer per round.  ``integers(n)`` draws what ``choice(n, size=1,
        # replace=False)`` drew, without building an array (PERFORMANCE.md
        # rule 18; pinned in tests/test_properties.py).
        peer_id = candidates[self._rng.integers(len(candidates))]
        peer = peers[peer_id]
        digest = self.view.digest()
        self._network.send(
            self.node_id,
            peer_id,
            lambda p=peer, d=digest: p.receive_digest(self.node_id, d),
        )

    def receive_digest(self, from_node: str, digest: Dict[str, int]) -> None:
        """Handle an incoming gossip digest and reply with our own."""
        if not self._is_up():
            return
        now = self._simulator.now
        self.view.merge_digest(digest, now)
        peers = self._peer_lookup()
        sender = peers.get(from_node)
        if sender is None:
            return
        reply = self.view.digest()
        self._network.send(
            self.node_id,
            from_node,
            lambda s=sender, d=reply: s.receive_reply(d),
        )

    def receive_reply(self, digest: Dict[str, int]) -> None:
        """Merge the digest a peer sent back to us."""
        if not self._is_up():
            return
        self.view.merge_digest(digest, self._simulator.now)


class MembershipService:
    """Owns all gossip agents and offers a cluster-wide liveness oracle.

    The operator's oracle (:meth:`is_alive`) answers from each node's actual
    state; coordinators ask :meth:`alive_among`, which answers from their own
    node's view, so partition effects remain visible to them.
    """

    def __init__(self, simulator: Simulator, network: NetworkModel) -> None:
        self._simulator = simulator
        self._network = network
        self._agents: Dict[str, GossipAgent] = {}
        self._node_up: Dict[str, Callable[[], bool]] = {}

    def register_node(self, node_id: str, is_up: Callable[[], bool]) -> GossipAgent:
        """Create and start a gossip agent for a (new) node."""
        agent = GossipAgent(
            self._simulator,
            self._network,
            node_id,
            peer_lookup=lambda: self._agents,
            is_up=is_up,
        )
        self._agents[node_id] = agent
        self._node_up[node_id] = is_up
        # Seed every existing view with the newcomer so it is not considered
        # dead before its first gossip round propagates.
        now = self._simulator.now
        for other in self._agents.values():
            other.view.observe(node_id, 0, now)
            agent.view.observe(other.node_id, other.heartbeat, now)
        return agent

    def deregister_node(self, node_id: str) -> None:
        """Remove a decommissioned node from the gossip group."""
        agent = self._agents.pop(node_id, None)
        self._node_up.pop(node_id, None)
        if agent is not None:
            agent.stop()
        for other in self._agents.values():
            other.view.forget(node_id)

    def alive_among(self, viewer: str, node_ids: List[str], now: float) -> List[str]:
        """The ``node_ids`` that ``viewer``'s failure detector believes alive at
        ``now``, in order (``node_ids`` itself if all): :meth:`MembershipView.is_alive`
        for each, in one frame.  A viewer without a view (a decommissioned
        coordinator) gets the operator's :meth:`is_alive` instead."""
        agent = self._agents.get(viewer)
        if agent is None:
            return [node_id for node_id in node_ids if self.is_alive(node_id)]
        view = agent.view
        owner, records = view._owner, view._records
        for node_id in node_ids:
            if node_id != owner:
                record = records.get(node_id)
                if record is None or now - record.last_progress > FAILURE_TIMEOUT:
                    return [node_id for node_id in node_ids if view.is_alive(node_id, now)]
        return node_ids

    def is_alive(self, node_id: str) -> bool:
        """Cluster-operator view: is the node actually up right now?"""
        is_up = self._node_up.get(node_id)
        return bool(is_up and is_up())
