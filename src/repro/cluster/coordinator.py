"""Request coordination: quorum reads and writes with tunable consistency.

Every client operation is handled by a *coordinator* node (chosen by the
cluster's client-side load balancer).  The coordinator resolves the key's
replica set on the hash ring, fans the request out to replicas over the
network, waits for the number of acknowledgements its consistency level
requires and then answers the client.  Writes are always sent to *all* live
replicas but acknowledged after ``W`` of them respond; the remaining replicas
apply the update asynchronously — the gap between the client acknowledgement
and the last replica apply **is** the inconsistency window the paper is
about.

The request path itself is composable: every policy decision on it (replica
selection, quorum accounting, hinted handoff, read repair, staleness
observation, monitoring hooks) is delegated to a
:class:`~repro.middleware.base.MiddlewarePipeline` the coordinator executes.
The coordinator owns the *mechanics* — version stamping, fan-out, timeout and
ack bookkeeping — while the pipeline owns the *policy*; the default stack
reproduces the classic hardcoded behaviour bit-identically (see
ARCHITECTURE.md and tests/test_seed_identity.py).

The coordinator reports two kinds of events to the cluster's listeners:

* ``on_write_acked(key, stamp, ack_time, replica_set)`` — a write became
  visible to the client; the ground-truth window tracker starts a window.
* ``on_replica_applied(key, stamp, node_id, time, background)`` — a replica
  applied a version (foreground, hint replay, repair or stream).

The third, ``on_operation_completed(result)`` — a read or write finished
(successfully or not) from the client's point of view — is not the
coordinator's to report: the pipeline's ``monitoring-hooks`` stage hands each
result ``_finish`` completes straight to the cluster's listeners.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..middleware.base import (
    TENANT_HINT,
    TENANT_TIER_HINT,
    MiddlewarePipeline,
    RequestContext,
)
from ..middleware.latency import NodeRttTracker
from ..simulation.engine import Simulator
from ..simulation.events import Event
from ..simulation.timers import TimerService
from ..simulation.network import NetworkModel
from .errors import Settings, positive
from .membership import MembershipService
from .node import ReplicaReadResponse, ReplicaWriteResponse, StorageNode
from .ring import HashRing
from .types import (
    ConsistencyLevel,
    OperationResult,
    OperationType,
    ReadResult,
    WriteResult,
)
from .versioning import VersionStamp, VersionedValue

__all__ = ["CoordinatorConfig", "RequestCoordinator", "AckedVersionRegistry"]

_CLIENT = "__client__"

#: Bytes per value when the workload does not specify a size.
DEFAULT_VALUE_SIZE = 1024

#: Acknowledgements :class:`AckedVersionRegistry` keeps per key.
ACK_HISTORY = 16


@dataclass
class CoordinatorConfig(Settings):
    """Request-handling parameters."""

    operation_timeout: float = positive(1.0)
    """Seconds before an in-flight operation fails with a timeout."""


class AckedVersionRegistry:
    """Tracks, per key, the newest version that has been acknowledged to a client.

    Used for two purposes: assigning ground-truth staleness annotations to
    read results (only the ground-truth tracker and experiment reports may use
    those fields), and answering "what is the newest acked version as of time
    t" which requires keeping a short history of acknowledgements per key.
    """

    def __init__(self) -> None:
        self._acked: Dict[str, List[tuple[float, VersionStamp]]] = {}
        # Per key acknowledged more than once: (latest ack time, newest
        # retained stamp).  A read issued at or after that time -- every read
        # that does not overlap a write of its own key -- is answered from
        # here and only an earlier one scans the history.  A key acknowledged
        # once (every preloaded, never rewritten record) has no entry.
        self._latest: Dict[str, tuple[float, VersionStamp]] = {}

    def record_ack(self, key: str, stamp: VersionStamp, ack_time: float) -> None:
        """Record that ``stamp`` was acknowledged to a client at ``ack_time``."""
        entries = self._acked.get(key)
        if entries is None:
            self._acked[key] = [(ack_time, stamp)]
            return
        latest, newest = self._latest[key] if key in self._latest else entries[0]
        entries.append((ack_time, stamp))
        if stamp > newest:
            newest = stamp
        if len(entries) > ACK_HISTORY:
            evicted = entries[0][1]
            del entries[0]
            if evicted == newest:
                # The newest stamp left with the oldest ack: only now is the
                # answer re-derived from what is retained.
                newest = max(retained for _, retained in entries)
        self._latest[key] = (ack_time if ack_time > latest else latest, newest)

    def newest_acked_before(self, key: str, time: float) -> Optional[VersionStamp]:
        """Newest stamp acknowledged at or before ``time`` (or ``None``)."""
        if key in self._latest:
            latest, newest = self._latest[key]
            if time >= latest:
                return newest
        entries = self._acked.get(key)
        if not entries:
            return None
        newest: Optional[VersionStamp] = None
        for ack_time, stamp in entries:
            if ack_time <= time and (newest is None or stamp > newest):
                newest = stamp
        return newest


@dataclass(slots=True)
class _Request(RequestContext):
    """One coordinated request: the context every stage is handed, plus the
    coordinator's own bookkeeping, in one record (PERFORMANCE.md rule 21)."""

    on_complete: Optional[Callable[[OperationResult], None]] = None
    required: int = 1
    """Replica acks (write) or responses (read) the effective level demands."""

    completed: bool = False
    """Set once the outcome is decided; later acks, responses, timers are ignored."""

    timeout_handle: Optional[Event] = None
    hedge_handle: Optional[Event] = None
    version: Optional[VersionedValue] = None
    """Write only: the version the coordinator stamped on arrival."""

    acks: int = 0
    responses: Optional[List[ReplicaReadResponse]] = None

    def close(self) -> None:
        """Decide the request: no later event may change its outcome.

        Each handle is dropped as it is cancelled.  A timer holds this record
        in its arguments, so a handle kept here would be a reference cycle;
        without it the record is freed by reference count as soon as the
        timer's corpse leaves the heap or the wheel (PERFORMANCE.md rule 14).
        """
        self.completed = True
        if self.timeout_handle is not None:
            self.timeout_handle.cancel()
            self.timeout_handle = None
        if self.hedge_handle is not None:
            self.hedge_handle.cancel()
            self.hedge_handle = None


class RequestCoordinator:
    """Executes reads and writes on behalf of clients through the pipeline."""

    def __init__(
        self,
        simulator: Simulator,
        network: NetworkModel,
        ring: HashRing,
        nodes: Dict[str, StorageNode],
        membership: MembershipService,
    ) -> None:
        self._simulator = simulator
        self._network = network
        self._ring = ring
        self._nodes = nodes
        self._membership = membership
        self._config = CoordinatorConfig()
        # Plain integer counters: bumping an attribute is cheaper than the
        # generator-protocol round-trip of ``next(itertools.count())`` on a
        # path taken once per write.
        self._sequence = 0
        self._write_ids = 0
        self.acked_registry = AckedVersionRegistry()

        # Listener hooks, bound by the Cluster facade.  ``on_replica_applied``
        # stays ``None`` until a listener overrides that hook, and is that
        # listener's own bound method while it is the only one.
        self.on_write_acked: Optional[
            Callable[[str, VersionStamp, float, Sequence[str]], None]
        ] = None
        self.on_replica_applied: Optional[
            Callable[[str, VersionStamp, str, float, bool], None]
        ] = None

        # The per-node RTT estimates: ``None`` until a stage's factory asks
        # for them (``rtt_tracker``), then fed every replica read response
        # here and forgetting a node the cluster decommissions.
        self.rtt: Optional[NodeRttTracker] = None

        # Counters used by reports and tests.
        self.writes_started = 0
        self.reads_started = 0
        self.writes_failed = 0
        self.reads_failed = 0
        self.writes_rejected = 0
        self.reads_rejected = 0
        self.unavailable_errors = 0
        self.timeouts = 0
        self.hinted_writes = 0
        self.hedged_reads = 0

    @property
    def config(self) -> CoordinatorConfig:
        """Coordinator configuration in effect."""
        return self._config

    def rtt_tracker(self) -> NodeRttTracker:
        """The per-node RTT estimates every stage that ranks by RTT reads."""
        if self.rtt is None:
            self.rtt = NodeRttTracker(fallback=self._network.round_trip_estimate)
        return self.rtt

    def set_pipeline(self, pipeline: MiddlewarePipeline) -> None:
        """Install a request pipeline (done once by the cluster facade)."""
        self._pipeline = pipeline
        # Optional hooks are bound only when a stage implements them, so the
        # default stack calls no ``on_request``, arms no hedge timer and never
        # reorders a fan-out (PERFORMANCE.md rules 6-7).
        implements = pipeline.implements
        self._on_request = pipeline.on_request if implements("on_request") else None
        self._hedge_read = pipeline.hedge_read if implements("hedge_read") else None
        self._order_write_targets = (
            pipeline.order_write_targets if implements("order_write_targets") else None
        )
        # Timer arms (`write:timeout`, `read:timeout`, `read:hedge`) go
        # through ``self._arm_timer``.  When a stage opts in to amortised
        # timers (PERFORMANCE.md rule 11) that is a TimerService wheel;
        # otherwise it is literally the simulator's ``deadline_in`` bound
        # method, which parks a timeout until it is reached and fires,
        # sequences and counts it as ``schedule_in`` would (rule 19).
        self._timers: Optional[TimerService] = None
        self._arm_timer = self._simulator.deadline_in
        if pipeline.timer_granularity is not None:
            self._timers = TimerService(
                self._simulator, granularity=pipeline.timer_granularity
            )
            self._arm_timer = self._timers.arm

    def timer_stats(self) -> Dict[str, object]:
        """Wheel counters for reports/bench; empty dict on the direct path."""
        return self._timers.stats() if self._timers is not None else {}

    def next_sequence(self) -> int:
        """Allocate the next version-stamp sequence number."""
        self._sequence += 1
        return self._sequence

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _replica_alive(self, coordinator_id: str, node_id: str) -> bool:
        """Whether ``node_id`` serves requests and the coordinator's failure
        detector believes it up."""
        node = self._nodes.get(node_id)
        if node is None or not node.serves_requests:
            return False
        return bool(self._membership.alive_among(coordinator_id, [node_id], self._simulator.now))

    # ------------------------------------------------------------------
    # Request lifecycle (shared by reads and writes)
    # ------------------------------------------------------------------
    def execute(
        self,
        is_read: bool,
        key: str,
        coordinator_id: str,
        replication_factor: int,
        consistency_level: ConsistencyLevel,
        on_complete: Callable[[OperationResult], None],
        operation: OperationType,
        hints: Optional[Mapping[str, object]] = None,
        value: bytes = b"",
        size: Optional[int] = None,
    ) -> None:
        """Coordinate one read or write (``value`` and ``size`` are a write's
        payload); ``on_complete`` receives the client-visible result.

        The open step every request shares: ``on_request``, then either shed
        it or send it client -> coordinator, where the fan-out starts.
        """
        if is_read:
            self.reads_started += 1
            result_type = ReadResult
        else:
            self.writes_started += 1
            result_type = WriteResult
        issued_at = self._simulator.now
        # Positional, in field order: requested, then effective, level.
        request = _Request(
            key,
            operation,
            is_read,
            coordinator_id,
            replication_factor,
            consistency_level,
            consistency_level,
            hints,
        )
        request.on_complete = on_complete
        if hints is not None:
            tenant = hints.get(TENANT_HINT)
            if tenant is not None:
                request.tenant = tenant
                request.tenant_tier = hints.get(TENANT_TIER_HINT)
        if self._on_request is not None:
            self._on_request(request)
        # Positional: issued = completed = now, unsuccessful, no replica reached.
        result = result_type(
            key,
            operation,
            issued_at,
            issued_at,
            False,
            0,
            0,
            request.consistency_level,
        )
        if request.tenant is not None:
            result.tenant = request.tenant
        request.result = result
        if request.rejection is not None:
            self._reject(request, request.rejection)
            return
        start = (
            partial(self._start_read, request)
            if is_read
            else partial(self._start_write, request, value, size)
        )
        if not self._network.send(_CLIENT, coordinator_id, start, client_facing=True):
            self._fail(request, "coordinator unreachable")

    def _replicas(self, request: _Request) -> Optional[Tuple[Sequence[str], List[str]]]:
        """Resolve the key's replica set and the quorum it must meet.

        Returns ``(preference list, live replicas)``, or ``None`` once the
        request has been failed for want of either.
        """
        preference_list = self._ring.preference_list(
            request.key, request.replication_factor
        )
        if not preference_list:
            self._fail(request, "no replicas available")
            return None
        request.required = self._pipeline.required_acks(request, len(preference_list))
        if not request.is_read:
            # A write goes to every replica, directly or as a hint; a read
            # only to the targets selected below.
            request.result.replicas_contacted = len(preference_list)
        # ``_replica_alive`` for the whole list, with one call into the
        # membership layer.  Resolved afresh for every request: the failure
        # detector's answer depends on the time.
        nodes = self._nodes
        live = []
        for node_id in preference_list:
            node = nodes.get(node_id)
            if node is not None and node.serves_requests:
                live.append(node_id)
        live = self._membership.alive_among(request.coordinator_id, live, self._simulator.now)
        if len(live) < request.required:
            self.unavailable_errors += 1
            self._fail(request, "unavailable: not enough live replicas")
            return None
        return preference_list, live

    def _timeout(self, request: _Request) -> None:
        if request.completed:
            return
        self.timeouts += 1
        self._fail(request, "timeout")

    def _fail(self, request: _Request, error: str) -> None:
        if request.completed:
            return
        request.close()
        request.result.error = error
        if request.is_read:
            self.reads_failed += 1
        else:
            self.writes_failed += 1
        self._finish(request, False)

    def _reject(self, request: _Request, reason: str) -> None:
        """Shed one request before fan-out (admission control), not a failure.

        Rejections happen synchronously inside ``execute`` — no timeout is armed
        and no replica was contacted — so the only bookkeeping is the distinct
        ``rejected`` accounting and the completion hooks.
        """
        request.close()
        request.result.rejected = True
        request.result.error = reason
        if request.is_read:
            self.reads_rejected += 1
        else:
            self.writes_rejected += 1
        self._finish(request, False)

    def _reply(self, request: _Request) -> None:
        """Answer the client; the operation succeeds when the reply arrives
        (at once if the client link drops it)."""
        finish = partial(self._finish, request, True)
        if not self._network.send(
            request.coordinator_id, _CLIENT, finish, client_facing=True
        ):
            finish()

    def _finish(self, request: _Request, success: bool) -> None:
        result = request.result
        result.completed_at = now = self._simulator.now
        result.latency = max(0.0, now - result.issued_at)
        result.success = success
        self._pipeline.on_complete(request, result)
        request.on_complete(result)

    # ------------------------------------------------------------------
    # Write specifics: version stamping, hints, ack counting
    # ------------------------------------------------------------------
    def _start_write(
        self, request: _Request, value: bytes, size: Optional[int]
    ) -> None:
        coordinator_id = request.coordinator_id
        coordinator = self._nodes.get(coordinator_id)
        if coordinator is None or not coordinator.serves_requests:
            self._fail(request, "coordinator down")
            return

        now = self._simulator.now
        self._write_ids += 1
        request.version = version = VersionedValue(
            VersionStamp(now, self.next_sequence()),
            value,
            self._write_ids,
            size if size is not None else DEFAULT_VALUE_SIZE,
        )
        request.result.version_timestamp = now

        replicas = self._replicas(request)
        if replicas is None:
            return
        preference_list, live = replicas
        if len(live) < len(preference_list):
            for node_id in preference_list:
                if node_id not in live:
                    self._hint(request, node_id)

        # Fan-out order is a pipeline decision (RTT-aware when that
        # middleware is installed): the first ``required`` acks raced for are
        # the ones from the replicas contacted first.  Same replicas either
        # way — only the send order moves.
        if self._order_write_targets is not None and len(live) > 1:
            ordered = self._order_write_targets(request, live)
            if ordered is not None:
                live = ordered

        on_done = partial(self._replica_write_done, request)
        for node_id in live:
            self._network.send(
                coordinator_id,
                node_id,
                partial(self._nodes[node_id].replica_write, request.key, version, on_done),
                on_drop=partial(self._hint, request, node_id),
            )
        request.timeout_handle = self._arm_timer(
            self._config.operation_timeout, self._timeout, request, label="write:timeout"
        )

    def _hint(self, request: _Request, node_id: str) -> None:
        """The write missed ``node_id``: offer it to the pipeline as a hint."""
        if self._pipeline.on_unreachable_replica(request, node_id, request.version):
            self.hinted_writes += 1

    def _replica_write_done(
        self, request: _Request, response: ReplicaWriteResponse
    ) -> None:
        if self.on_replica_applied is not None:
            self.on_replica_applied(
                request.key, request.version.stamp, response.node_id, response.applied_at, False
            )
        self._network.send(
            response.node_id,
            request.coordinator_id,
            partial(self._receive_write_ack, request),
        )

    def _receive_write_ack(self, request: _Request) -> None:
        if request.completed:
            return
        request.acks += 1
        request.result.replicas_responded = request.acks
        if request.acks < request.required:
            return

        request.close()
        key = request.key
        stamp = request.version.stamp
        ack_time = self._simulator.now
        self.acked_registry.record_ack(key, stamp, ack_time)
        replica_set = self._ring.preference_list(
            key, request.result.replicas_contacted
        )
        if self.on_write_acked is not None:
            self.on_write_acked(key, stamp, ack_time, replica_set)
        self._reply(request)

    # ------------------------------------------------------------------
    # Read specifics: target selection, hedging, response gathering
    # ------------------------------------------------------------------
    def _start_read(self, request: _Request) -> None:
        coordinator = self._nodes.get(request.coordinator_id)
        if coordinator is None or not coordinator.serves_requests:
            self._fail(request, "coordinator down")
            return
        replicas = self._replicas(request)
        if replicas is None:
            return
        _, live = replicas

        # Replica selection is a pipeline decision (load-balanced random by
        # default, latency-aware when that middleware is installed); the
        # deterministic prefix is the fallback when no stage has an opinion.
        required = request.required
        targets = self._pipeline.select_read_targets(request, live, required)
        if targets is None:
            targets = live[:required]
        request.result.replicas_contacted = len(targets)

        request.responses = []
        if self.rtt is not None:
            request.send_times = {}
        for node_id in targets:
            self._send_replica_read(request, node_id)
        request.timeout_handle = self._arm_timer(
            self._config.operation_timeout, self._timeout, request, label="read:timeout"
        )

        # Speculative (hedged) read: when a hedging stage is installed and
        # spare live replicas exist, arm a timer at the pipeline's latency
        # budget.  If the read completes first the timer is cancelled; if it
        # fires, one backup read goes to the best uncontacted replica.
        if self._hedge_read is not None and len(live) > len(targets):
            plan = self._hedge_read(request, live, targets)
            if plan is not None:
                budget, candidates = plan
                request.hedge_armed = True
                request.hedge_handle = self._arm_timer(
                    budget, self._fire_hedge, request, candidates, label="read:hedge"
                )

    def _fire_hedge(self, request: _Request, candidates: Sequence[str]) -> None:
        if request.completed:
            return
        request.hedge_handle = None
        for backup in candidates:
            if self._replica_alive(request.coordinator_id, backup):
                request.hedge_node = backup
                self.hedged_reads += 1
                request.result.replicas_contacted += 1
                self._send_replica_read(request, backup)
                return

    def _send_replica_read(self, request: _Request, node_id: str) -> None:
        if request.send_times is not None:
            request.send_times[node_id] = self._simulator.now
        self._network.send(
            request.coordinator_id,
            node_id,
            partial(
                self._nodes[node_id].replica_read,
                request.key,
                partial(self._replica_read_done, request),
            ),
        )

    def _replica_read_done(
        self, request: _Request, response: ReplicaReadResponse
    ) -> None:
        self._network.send(
            response.node_id,
            request.coordinator_id,
            partial(self._receive_read_response, request, response),
        )

    def _receive_read_response(
        self, request: _Request, response: ReplicaReadResponse
    ) -> None:
        send_times = request.send_times
        if send_times is not None:
            sent_at = send_times.get(response.node_id)
            if sent_at is not None:
                self.rtt.observe(response.node_id, self._simulator.now - sent_at)
        if request.completed:
            return
        responses = request.responses
        if request.hedge_armed:
            # A hedged read may race two responses from the same replica (the
            # primary send and a later speculative one); count each replica's
            # acknowledgement once so the quorum is never satisfied twice
            # over by one node.
            node_id = response.node_id
            for earlier in responses:
                if earlier.node_id == node_id:
                    return
        responses.append(response)
        result = request.result
        result.replicas_responded = len(responses)
        if len(responses) < request.required:
            return

        request.close()
        if request.hedge_armed:
            request.completed_by = response.node_id

        # Last-writer-wins over the gathered responses (a miss is older than
        # any version; of equal stamps the first response's is kept).
        newest: Optional[VersionedValue] = None
        for replica_response in responses:
            version = replica_response.version
            if version is not None and (newest is None or version.stamp > newest.stamp):
                newest = version

        self._pipeline.inspect_read_responses(request, responses)

        if newest is not None:
            result.value = newest.value
            result.version_timestamp = newest.stamp.timestamp

        # Ground-truth staleness annotation and any custom result decoration
        # run as the pipeline's annotation stage.
        self._pipeline.annotate_read(request, newest)
        self._reply(request)

    # ------------------------------------------------------------------
    # Background writes (hints, repairs, anti-entropy, streaming)
    # ------------------------------------------------------------------
    def background_write(
        self, target_node: str, key: str, version: VersionedValue, source: str
    ) -> bool:
        """Send one background (repair/hint) write to a replica.

        Returns ``True`` when the message was dispatched.  The apply is
        reported to ``on_replica_applied`` with ``background=True`` so the
        ground-truth tracker closes windows that only repairs can close.
        """
        node = self._nodes.get(target_node)
        if node is None or not node.is_up:
            return False

        def _applied(response: ReplicaWriteResponse) -> None:
            # Looked up when the apply lands, not when the write was sent: a
            # listener registered in between is told.
            if self.on_replica_applied is not None:
                self.on_replica_applied(
                    key, version.stamp, response.node_id, response.applied_at, True
                )

        def _deliver() -> None:
            node.replica_write(key, version, on_done=_applied, background=True)

        return self._network.send(source, target_node, _deliver)
