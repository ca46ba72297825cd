"""Latency-aware replica selection (a deterministic dynamic snitch).

The default :class:`~repro.middleware.builtin.RandomReplicaSelection` spreads
read load uniformly.  Under heterogeneous replicas (interference, congestion,
a slow node) that wastes the latency budget: the paper's middleware argument
is exactly that the request path should *adapt* to observed conditions.
:class:`LatencyAwareReplicaSelection` closes the loop — every replica read
response updates a per-node EWMA round-trip estimate, and subsequent reads
prefer the lowest-RTT replicas.

The per-node estimates live in a :class:`NodeRttTracker` that the request
coordinator owns and feeds (``RequestCoordinator.rtt``): a stage only reads
it, and :class:`~repro.monitoring.estimators.RttEstimator` reports the same
per-node RTT view the router acts on.  Nodes without samples fall back to
the congestion-aware cluster-wide round-trip estimate — the same quantity
the RTT estimator's window model is built on.

Selection is deterministic (EWMA ordering, node id ties): it draws from no
RNG stream, so adding it to a pipeline never perturbs other streams
(PERFORMANCE.md rule 3).

The ordering is the tracker's, not each consumer's: it changes only when a
sample arrives or a node is forgotten, so the tracker keeps one ranking per
such *generation* and the stages that rank by it — this one, the hedger and
the write router — filter that ranking by the nodes they were handed
(:meth:`NodeRttTracker.ranked`; PERFORMANCE.md rule 14).
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from .base import RequestContext, RequestMiddleware
from .registry import MiddlewareBuildContext, register_middleware

__all__ = ["NodeRttTracker", "LatencyAwareReplicaSelection"]

#: EWMA smoothing factor of the per-node RTT estimates (weight of the newest
#: sample).
RTT_ALPHA = 0.3

#: Relative RTT slack before a replica (or a coordinator) is considered slow,
#: and how many avoidances pass between two reads routed to the slowest
#: replica to re-probe it.
BADNESS_THRESHOLD = 0.5
EXPLORE_EVERY = 32


class NodeRttTracker:
    """Per-node EWMA round-trip-time estimates fed by replica responses."""

    __slots__ = ("_alpha", "_estimates", "_sampled", "_fallback", "_ranking")

    def __init__(self, fallback: Optional[Callable[[], float]] = None) -> None:
        self._alpha = RTT_ALPHA
        self._estimates: Dict[str, float] = {}
        # How many nodes have an estimate, kept by ``observe`` and ``forget``
        # so that ``ranked`` recognises the full sampled set without a count.
        self._sampled = 0
        self._fallback = fallback
        # The sampled nodes as (estimate, node id) pairs, fastest first: a
        # pure function of ``_estimates``, so ``observe`` and ``forget`` (its
        # only writers) drop it and ``ranked`` rebuilds it on first use.
        self._ranking: Optional[List[Tuple[float, str]]] = None

    @property
    def alpha(self) -> float:
        """EWMA smoothing factor (weight of the newest sample)."""
        return self._alpha

    def observe(self, node_id: str, rtt: float) -> None:
        """Fold one observed round trip into the node's estimate."""
        current = self._estimates.get(node_id)
        if current is None:
            self._estimates[node_id] = rtt
            self._sampled += 1
        else:
            self._estimates[node_id] = current + self._alpha * (rtt - current)
        self._ranking = None

    def ranked(
        self, nodes: Collection[str]
    ) -> Tuple[List[Tuple[float, str]], List[str], int]:
        """Rank the distinct ``nodes`` handed in: ``(ranked, unknown, slow)``.

        ``ranked`` holds an ``(estimate, node_id)`` pair per node with an
        estimate, fastest first, node id breaking ties; ``unknown`` the ids
        with none, sorted.  A total order restricted to a subset is the
        subset's order, so the sampled nodes are read off the generation's
        ranking, and when they are all of the sampled nodes the ranking
        itself is handed out: callers read it and never change it.  An
        unsampled node takes the fallback's value *as of this
        call* (it varies with congestion and is never cached); without a
        fallback it is genuinely unknown.  Callers must treat unknown as
        *unknown*, never as infinitely fast: an unsampled replica ranking
        first would also poison any cutoff computed from the front.

        ``slow`` counts the trailing pairs of ``ranked`` whose estimate is
        more than ``1 + BADNESS_THRESHOLD`` times the fastest's: the nodes a
        stage that avoids slow ones skips.  A round trip is never negative,
        so the fastest is never slow.
        """
        ranking = self._ranking
        estimates = self._estimates
        if ranking is None:
            ranking = self._ranking = sorted(zip(estimates.values(), estimates))
        unknown: List[str] = []
        # The steady state: every node handed in has been sampled.
        sampled = 0
        for node_id in nodes:
            if node_id not in estimates:
                ranked = [pair for pair in ranking if pair[1] in nodes]
                unknown = sorted(node_id for node_id in nodes if node_id not in estimates)
                if self._fallback is not None:
                    fallback = float(self._fallback())
                    ranked += [(fallback, node_id) for node_id in unknown]
                    ranked.sort()
                    unknown = []
                break
            sampled += 1
        else:
            if sampled == self._sampled:
                ranked = ranking
            else:
                ranked = [pair for pair in ranking if pair[1] in nodes]
        slow = 0
        if ranked:
            cutoff = ranked[0][0] * (1.0 + BADNESS_THRESHOLD)
            for estimate, _ in reversed(ranked):
                if estimate <= cutoff:
                    break
                slow += 1
        return ranked, unknown, slow

    def snapshot(self) -> Dict[str, float]:
        """Copy of all per-node estimates (for reports and tests)."""
        return dict(self._estimates)

    def forget(self, node_id: str) -> None:
        """Drop a node's estimate (e.g. after decommissioning)."""
        if self._estimates.pop(node_id, None) is not None:
            self._sampled -= 1
        self._ranking = None


class LatencyAwareReplicaSelection(RequestMiddleware):
    """Route reads away from slow replicas, spreading load over the fast ones.

    Greedily sending every read to the single lowest-RTT replica herds the
    whole read load onto one node, queues it up and oscillates — the classic
    dynamic-snitch failure mode.  Like Cassandra's snitch, this middleware
    therefore applies a *badness threshold*: replicas whose RTT estimate is
    within ``(1 + BADNESS_THRESHOLD)`` of the best are considered healthy and
    shared round-robin; only replicas meaningfully slower than the best (a
    noisy neighbour, an overloaded or degraded node) are avoided.

    An avoided replica receives no reads, so its EWMA would never recover on
    its own once the degradation ends.  Every ``EXPLORE_EVERY``-th avoidance
    therefore routes one read to the slowest replica instead (bounded
    exploration, one potentially-slow read per window), refreshing its
    estimate so recovered nodes rejoin the rotation.
    """

    name = "latency-aware-selection"

    def __init__(self, tracker: NodeRttTracker) -> None:
        self._tracker = tracker
        self._rotation = 0
        self._since_explore = 0
        self.selections = 0
        """Reads this middleware routed (for reports and tests)."""

        self.avoidances = 0
        """Reads routed away from at least one slow replica."""

        self.explorations = 0
        """Reads deliberately routed to an avoided replica to re-probe it."""

    def select_read_targets(
        self, ctx: RequestContext, live: Sequence[str], required: int
    ) -> Optional[List[str]]:
        if len(live) <= required:
            return None  # nothing to choose
        self.selections += 1
        ranked, unknown, slow = self._tracker.ranked(live)
        # With no RTT signal for any replica the pool is the sorted live set:
        # never avoid (or prefer) a replica on zero information.
        pool = unknown
        if ranked:
            ids = [pair[1] for pair in ranked]
            healthy = len(ids) - slow
            if slow:
                self.avoidances += 1
                self._since_explore += 1
                if self._since_explore >= EXPLORE_EVERY:
                    # Re-probe the slowest replica so a recovered node's estimate
                    # refreshes and it can rejoin the healthy rotation.
                    self._since_explore = 0
                    self.explorations += 1
                    return [ids[-1]] + (ids[:-1] + unknown)[: required - 1]
            # Unsampled replicas are *unknown*, not infinitely fast: they stay in
            # the healthy rotation (so they get probed) but never define the
            # cutoff and never push sampled replicas into the avoided set.
            pool = ids[:healthy] + unknown
            if len(pool) <= required:
                # Not enough healthy replicas to choose among: top up with the
                # fastest of the avoided ones.
                return (pool + ids[healthy:])[:required]
        # Rotate among the healthy replicas so none of them is herded.
        size = len(pool)
        start = self._rotation % size
        self._rotation += 1
        return [pool[(start + i) % size] for i in range(required)]

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "alpha": self._tracker.alpha,
            "badness_threshold": BADNESS_THRESHOLD,
            "nodes_tracked": len(self._tracker.snapshot()),
            "selections": self.selections,
            "avoidances": self.avoidances,
            "explorations": self.explorations,
        }


@register_middleware("latency-aware-selection")
def _build_latency_aware(ctx: MiddlewareBuildContext) -> LatencyAwareReplicaSelection:
    return LatencyAwareReplicaSelection(ctx.coordinator.rtt_tracker())
