"""The previously hardcoded request-path behaviours, as middlewares.

Each class here is a faithful extraction of logic that used to live inline
in :class:`~repro.cluster.coordinator.RequestCoordinator`: random replica
selection, quorum/consistency enforcement, hinted handoff, read repair,
ground-truth staleness annotation and the listener notification that feeds
the piggyback monitor.  The default pipeline
(:data:`~repro.middleware.registry.DEFAULT_REQUEST_PIPELINE`) composes them
in the original order and is bit-identical to the pre-pipeline coordinator:
the same RNG streams (``coordinator``, ``read-repair``) are consumed at the
same call sites and no events are reordered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from .base import RequestContext, RequestMiddleware
from .registry import MiddlewareBuildContext, register_middleware

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..cluster.coordinator import AckedVersionRegistry
    from ..cluster.hinted_handoff import HintedHandoffManager
    from ..cluster.read_repair import ReadRepairer
    from ..cluster.types import OperationResult

__all__ = [
    "RandomReplicaSelection",
    "ConsistencyEnforcement",
    "HintedHandoffMiddleware",
    "ReadRepairMiddleware",
    "StalenessAnnotation",
    "MonitoringHooks",
]


class RandomReplicaSelection(RequestMiddleware):
    """Load-balanced read routing: contact a random subset of live replicas.

    A simplification of Cassandra's dynamic snitch: spreading reads means a
    CL=ONE read genuinely samples the replica set, so replica lag stays
    observable.  Draws from the ``coordinator`` stream — the same stream and
    call site the pre-pipeline coordinator used, which keeps the default
    configuration bit-identical to the seed numbers.
    """

    name = "replica-selection"

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def select_read_targets(
        self, ctx: RequestContext, live: Sequence[str], required: int
    ) -> Optional[List[str]]:
        if len(live) <= required:
            return None  # nothing to choose; coordinator takes live[:required]
        # ``permutation(n)`` is ``arange(n)`` shuffled by the same loop of
        # draws, so shuffling the names picks what it picked, without an array
        # (``tests/test_properties.py`` pins the equality).
        targets = list(live)
        self._rng.shuffle(targets)
        del targets[required:]
        return targets


class ConsistencyEnforcement(RequestMiddleware):
    """Quorum accounting: the effective CL decides how many acks are required.

    The actual arithmetic lives in one place —
    :meth:`~repro.cluster.types.ConsistencyLevel.required_acks` — and the
    pipeline applies the same rule as an engine-level fallback when no stage
    has an opinion, so dropping this stage does not weaken quorums.  The
    stage exists as the *policy seat*: a custom pipeline replaces it (or adds
    a later ``required_acks`` stage, which wins) to bend quorum accounting —
    sloppy quorums under failure, per-tenant floors, admission-driven
    relaxation — without touching the coordinator.
    """

    name = "consistency"

    def required_acks(self, ctx: RequestContext, effective_rf: int) -> Optional[int]:
        return ctx.consistency_level.required_acks(effective_rf)


class HintedHandoffMiddleware(RequestMiddleware):
    """Store a hint whenever a write cannot reach one of its replicas."""

    name = "hinted-handoff"

    def __init__(self, manager: "HintedHandoffManager") -> None:
        self._manager = manager

    def on_unreachable_replica(
        self, ctx: RequestContext, node_id: str, version: object
    ) -> bool:
        self._manager.store(node_id, ctx.key, version)
        return True


class ReadRepairMiddleware(RequestMiddleware):
    """Detect replica divergence on reads and schedule repair writes."""

    name = "read-repair"

    def __init__(self, repairer: "ReadRepairer") -> None:
        self._repairer = repairer

    def inspect_read_responses(self, ctx: RequestContext, responses: Sequence[object]) -> None:
        self._repairer.inspect(ctx.key, responses)


class StalenessAnnotation(RequestMiddleware):
    """Ground-truth staleness observation on read results.

    Compares the returned version against the newest version acknowledged to
    any client before the read was issued.  Only the ground-truth tracker and
    experiment reports may consume the fields it sets.
    """

    name = "staleness"

    def __init__(self, registry: "AckedVersionRegistry") -> None:
        self._registry = registry

    def annotate_read(self, ctx: RequestContext, newest: Optional[object]) -> None:
        result = ctx.result
        reference = self._registry.newest_acked_before(ctx.key, result.issued_at)
        if reference is None:
            return
        if newest is None or newest.stamp < reference:
            result.stale = True
            returned_ts = newest.stamp.timestamp if newest is not None else 0.0
            result.staleness = max(0.0, reference.timestamp - returned_ts)


class MonitoringHooks(RequestMiddleware):
    """Feed completed operations to the cluster's listeners.

    This is the piggyback monitoring tap: the piggyback estimator and, on a
    tenant run, the tenant rollup's per-tier read windows observe the request
    path through the listener notifications this middleware fires.  Dropping
    it from a pipeline silences those two and nothing else: the metrics the
    controller reads, the RTT model and the report's counts come from the
    workload's tally, and the data path is untouched.
    """

    name = "monitoring-hooks"

    def __init__(self, observers: Sequence[Callable[["OperationResult"], None]]) -> None:
        """``observers`` is the cluster's own (live) list of
        ``on_operation_completed`` listeners, so a completed operation
        reaches them from this frame, with no forwarding call in between."""
        self._observers = observers

    def on_complete(self, ctx: RequestContext, result: "OperationResult") -> None:
        for observer in self._observers:
            observer(result)


# ----------------------------------------------------------------------
# Registry factories
# ----------------------------------------------------------------------
@register_middleware("replica-selection")
def _build_replica_selection(ctx: MiddlewareBuildContext) -> RandomReplicaSelection:
    # Stream name pinned to "coordinator" for bit-identity with the seed.
    return RandomReplicaSelection(ctx.simulator.streams.stream("coordinator"))


@register_middleware("consistency")
def _build_consistency(_ctx: MiddlewareBuildContext) -> ConsistencyEnforcement:
    return ConsistencyEnforcement()


@register_middleware("hinted-handoff")
def _build_hinted_handoff(ctx: MiddlewareBuildContext) -> HintedHandoffMiddleware:
    return HintedHandoffMiddleware(ctx.cluster.hinted_handoff)


@register_middleware("read-repair")
def _build_read_repair(ctx: MiddlewareBuildContext) -> ReadRepairMiddleware:
    return ReadRepairMiddleware(ctx.cluster.read_repairer)


@register_middleware("staleness")
def _build_staleness(ctx: MiddlewareBuildContext) -> StalenessAnnotation:
    return StalenessAnnotation(ctx.coordinator.acked_registry)


@register_middleware("monitoring-hooks")
def _build_monitoring_hooks(ctx: MiddlewareBuildContext) -> MonitoringHooks:
    return MonitoringHooks(ctx.cluster.completion_observers)
