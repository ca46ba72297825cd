"""Request-path middleware protocol and pipeline.

The paper's core claim is that consistency/latency trade-offs belong in
*middleware on the request path* of a replicated store.  This module turns
that path into an explicit extension point: a :class:`RequestContext` rides
along with every coordinated read or write, and an ordered
:class:`MiddlewarePipeline` of :class:`RequestMiddleware` instances is
consulted at the well-defined decision points of the request lifecycle —

* ``on_request``          — before fan-out; may rewrite the effective
  consistency level or reject the request outright (admission control),
* ``required_acks``       — how many replica acknowledgements the effective
  consistency level demands (quorum accounting),
* ``select_read_targets`` — which live replicas a read contacts
  (load balancing / latency-aware routing),
* ``on_unreachable_replica`` — a write could not reach a replica
  (hinted handoff),
* ``hedge_read``          — arm a speculative backup read at a latency
  budget (tail-latency hedging),
* ``order_write_targets`` — order the write fan-out over live replicas
  (RTT-aware write routing),
* ``inspect_read_responses`` — all required responses arrived
  (digest comparison / read repair),
* ``annotate_read``       — decorate the client-visible result
  (ground-truth staleness observation),
* ``on_complete``         — the operation finished from the client's point
  of view (piggyback monitoring hooks).

One hook sits outside the per-request flow: ``preferred_coordinator`` lets a
stage bias the cluster's client-side coordinator choice (snitch-style).  The
per-node RTT estimates are no hook: the coordinator owns and feeds them, and
a stage reads them (``ctx.coordinator.rtt_tracker()``).

How the stages implementing one hook combine is written down once, in the
:data:`HOOKS` table (hook name -> fold rule).  The pipeline binds one
dispatcher per hook from it at construction, over only the stages that
override the hook; a hook with a single stage dispatches straight to that
stage's method, so a request through the default stack pays no dispatch
frames (see PERFORMANCE.md).

The default stack reproduces the previously hardcoded coordinator behaviour
bit-identically: the same RNG streams are consumed at the same points, no
events are reordered, and no extra draws happen (tests/test_seed_identity.py
holds the proof).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..cluster.types import ConsistencyLevel, OperationResult, OperationType

__all__ = [
    "TENANT_HINT",
    "TENANT_TIER_HINT",
    "RequestContext",
    "RequestMiddleware",
    "HOOKS",
    "MiddlewarePipeline",
]

#: Hint key carrying the issuing tenant's id (multi-tenant workloads only).
TENANT_HINT = "tenant"

#: Hint key carrying the issuing tenant's SLO tier name.
TENANT_TIER_HINT = "tenant_tier"


@dataclass(slots=True)
class RequestContext:
    """Per-operation state shared between the coordinator and the pipeline."""

    key: str
    operation: "OperationType"
    is_read: bool
    coordinator_id: Optional[str]
    replication_factor: int
    requested_level: "ConsistencyLevel"
    """The consistency level the caller asked for (never rewritten)."""

    consistency_level: "ConsistencyLevel"
    """The effective level; ``on_request`` middlewares may rewrite it."""

    hints: Optional[Mapping[str, object]] = None
    """Caller-supplied per-request hints (e.g. the workload's CL override)."""

    tenant: Optional[str] = None
    """Issuing tenant's id (from the ``TENANT_HINT`` hint; ``None`` when the
    workload is tenantless — the default single-tenant stack never sets it)."""

    tenant_tier: Optional[str] = None
    """Issuing tenant's SLO tier name (rides along with ``tenant``)."""

    result: Optional["OperationResult"] = None
    """The client-visible result record, once the coordinator created it."""

    rejection: Optional[str] = None
    """Set by ``on_request`` to fail the request before fan-out."""

    send_times: Optional[Dict[str, float]] = None
    """Replica-read dispatch times, kept only while the coordinator tracks RTTs."""

    hedge_armed: bool = False
    """Whether a hedge timer was armed for this read (hedging stacks only)."""

    hedge_node: Optional[str] = None
    """The replica the speculative backup read was sent to (``None`` until
    the hedge timer actually fires; stays ``None`` when it is cancelled)."""

    completed_by: Optional[str] = None
    """Node whose response completed the read — tracked only on hedged
    requests, so the hedging middleware can attribute wins."""

    def reject(self, reason: str) -> None:
        """Fail this request before it fans out (admission control)."""
        self.rejection = reason


class RequestMiddleware:
    """Base class for request-path middlewares; override any subset of hooks.

    Every hook has a no-op default.  The pipeline detects which hooks a
    subclass actually overrides and only dispatches those, so an unused hook
    costs nothing per request.  Each hook has one row in :data:`HOOKS`.
    """

    #: Registry name; instances report it in pipeline descriptions.
    name: str = "middleware"

    #: Stages whose speculative timers are overwhelmingly cancelled may set
    #: a wheel granularity (seconds); the pipeline surfaces the tightest one
    #: as ``timer_granularity`` and the coordinator then routes its timer
    #: arms through an amortised ``TimerService`` (PERFORMANCE.md rule 11).
    #: ``None`` (the default) leaves timers on the direct heap path.
    timer_wheel_granularity: Optional[float] = None

    def on_request(self, ctx: RequestContext) -> None:
        """Called before fan-out; may rewrite ``ctx.consistency_level`` or reject."""

    def required_acks(self, ctx: RequestContext, effective_rf: int) -> Optional[int]:
        """Number of replica acks/responses required (``None`` = no opinion)."""
        return None

    def select_read_targets(
        self, ctx: RequestContext, live: Sequence[str], required: int
    ) -> Optional[List[str]]:
        """Pick the replicas a read contacts (``None`` = no opinion)."""
        return None

    def on_unreachable_replica(
        self, ctx: RequestContext, node_id: str, version: object
    ) -> bool:
        """A write missed ``node_id``; return ``True`` when handled (hint stored)."""
        return False

    def hedge_read(
        self, ctx: RequestContext, live: Sequence[str], targets: Sequence[str]
    ) -> Optional[Tuple[float, List[str]]]:
        """Plan a speculative backup read for a fanned-out read.

        Return ``(budget_seconds, candidates)`` to have the coordinator arm a
        hedge timer: if the read has not completed ``budget_seconds`` after
        fan-out, one backup read goes to the first still-live candidate.
        ``None`` means no hedge (the default).
        """
        return None

    def order_write_targets(
        self, ctx: RequestContext, live: Sequence[str]
    ) -> Optional[List[str]]:
        """Order the write fan-out over live replicas (``None`` = no opinion)."""
        return None

    def preferred_coordinator(self, serving: Sequence[str]) -> Optional[str]:
        """Pick the coordinator for the next client request (``None`` = no
        opinion; the cluster then falls back to its round-robin cursor)."""
        return None

    def inspect_read_responses(self, ctx: RequestContext, responses: Sequence[object]) -> None:
        """Inspect gathered read responses (e.g. compare digests, repair)."""

    def annotate_read(self, ctx: RequestContext, newest: Optional[object]) -> None:
        """Decorate the read result (e.g. ground-truth staleness fields)."""

    def on_complete(self, ctx: RequestContext, result: object) -> None:
        """The operation finished (successfully or not) for the client."""

    def describe(self) -> Dict[str, object]:
        """One-line description for reports and the CLI."""
        return {"name": self.name}


# ----------------------------------------------------------------------
# Fold rules: how the answers of the stages implementing one hook combine
# ----------------------------------------------------------------------
_Hook = Callable[..., object]


def _call_each(stages: Sequence[_Hook]) -> _Hook:
    """Every stage runs, in stack order; nothing is returned."""

    def dispatch(*args: object) -> None:
        for stage in stages:
            stage(*args)

    return dispatch


def _first_opinion(stages: Sequence[_Hook]) -> _Hook:
    """Stages are asked in stack order; the first non-``None`` answer wins
    and later stages are not asked."""

    def dispatch(*args: object) -> object:
        for stage in stages:
            answer = stage(*args)
            if answer is not None:
                return answer
        return None

    return dispatch


def _any_true(stages: Sequence[_Hook]) -> _Hook:
    """Every stage runs; ``True`` when any of them returned a true value."""

    def dispatch(*args: object) -> bool:
        handled = False
        for stage in stages:
            if stage(*args):
                handled = True
        return handled

    return dispatch


def _last_opinion_else_quorum(stages: Sequence[_Hook]) -> _Hook:
    """Every stage runs and the last non-``None`` answer wins; when no stage
    has an opinion the effective consistency level's own arithmetic applies,
    so dropping the ``consistency`` stage does not weaken quorums."""

    def dispatch(ctx: RequestContext, effective_rf: int) -> int:
        required: Optional[int] = None
        for stage in stages:
            value = stage(ctx, effective_rf)
            if value is not None:
                required = value
        if required is None:
            required = ctx.consistency_level.required_acks(effective_rf)
        return required

    return dispatch


#: The hook table: every hook of :class:`RequestMiddleware` and the rule that
#: folds its stages' answers into the one the coordinator acts on.  A new hook
#: is a method on :class:`RequestMiddleware` plus a row here.
HOOKS: Mapping[str, Callable[[Sequence[_Hook]], _Hook]] = {
    "on_request": _call_each,
    "required_acks": _last_opinion_else_quorum,
    "select_read_targets": _first_opinion,
    "on_unreachable_replica": _any_true,
    "hedge_read": _first_opinion,
    "order_write_targets": _first_opinion,
    "preferred_coordinator": _first_opinion,
    "inspect_read_responses": _call_each,
    "annotate_read": _call_each,
    "on_complete": _call_each,
}

#: Answers for a hook no stage implements: the protocol's documented defaults.
_NO_STAGE = RequestMiddleware()


class MiddlewarePipeline:
    """An ordered, immutable stack of request middlewares.

    Each hook in :data:`HOOKS` is an attribute holding that hook's dispatcher,
    called with the hook's own arguments (``pipeline.on_request(ctx)``).
    Dispatchers are bound once, at construction, from the stages that
    actually override the hook: the per-request cost is proportional to the
    number of stages implementing a hook, not to the stack length.
    """

    __slots__ = ("_middlewares", "_implemented", "timer_granularity", *HOOKS)

    def __init__(self, middlewares: Sequence[RequestMiddleware] = ()) -> None:
        self._middlewares: Tuple[RequestMiddleware, ...] = tuple(middlewares)
        self._implemented: Dict[str, bool] = {}
        for hook, fold in HOOKS.items():
            default = getattr(RequestMiddleware, hook)
            stages = [
                getattr(middleware, hook)
                for middleware in self._middlewares
                if getattr(type(middleware), hook) is not default
            ]
            self._implemented[hook] = bool(stages)
            if len(stages) > 1 or fold is _last_opinion_else_quorum:
                dispatcher = fold(stages)
            else:
                # One stage's answer is already the folded answer, and with
                # none the protocol default is: bind the method itself, so
                # the default stack pays no dispatch frame.  (The quorum
                # rule is the exception: its fallback applies to a lone
                # stage's ``None`` too, so it always folds.)
                dispatcher = stages[0] if stages else getattr(_NO_STAGE, hook)
            setattr(self, hook, dispatcher)
        # Amortised-timer opt-in: the tightest wheel granularity any stage
        # declares, or ``None`` when no stage does — in which case the
        # coordinator keeps arming timers directly on the heap and no
        # TimerService is ever constructed (the default stack's event
        # sequence stays bit-identical by construction).
        declared = [
            middleware.timer_wheel_granularity
            for middleware in self._middlewares
            if middleware.timer_wheel_granularity is not None
        ]
        self.timer_granularity = float(min(declared)) if declared else None

    def implements(self, hook: str) -> bool:
        """Whether any stage overrides ``hook`` (``KeyError`` for a name that
        is not in :data:`HOOKS`).

        The coordinator and the cluster ask once, when the pipeline is
        installed, before paying for an optional hook (a hedge timer, write
        ordering, coordinator preference), so the default
        stack schedules no extra events and runs no extra code
        (PERFORMANCE.md rule 6).
        """
        return self._implemented[hook]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """Registry names of the stack, in order."""
        return tuple(m.name for m in self._middlewares)

    def get(self, name: str) -> Optional[RequestMiddleware]:
        """First middleware with the given registry name (or ``None``)."""
        for middleware in self._middlewares:
            if middleware.name == name:
                return middleware
        return None

    def describe(self) -> List[Dict[str, object]]:
        """Per-middleware descriptions, in order."""
        return [m.describe() for m in self._middlewares]
