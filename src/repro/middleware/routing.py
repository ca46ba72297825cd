"""RTT-aware write fan-out ordering and coordinator preference (snitch-style).

Writes fan out to *all* live replicas, so replica choice is off the table —
but two latency levers remain on the request path:

* **Fan-out order.**  With CL=ONE/QUORUM the write completes after the first
  ``required_acks`` acknowledgements; sending to the lowest-RTT replicas
  first means those acks are the ones raced for, and a fail-slow replica's
  ack is the one the client never waits on.
* **Coordinator preference.**  Every operation pays the client→coordinator
  hop before any replica work starts.  Preferring coordinators that have
  been answering fast (by the same per-node EWMA estimates) trims that
  first hop, with a badness threshold plus rotation so the preference never
  herds all requests onto a single node.

Both decisions are pure functions of the coordinator's :class:`NodeRttTracker`
state — its per-generation ranking (EWMA order with node-id ties) filtered
by the nodes at hand, unknown nodes kept in rotation — so the stage draws
from no RNG stream and adding it never perturbs other streams
(PERFORMANCE.md rule 3).  Message *counts* are unchanged (writes still reach
every live replica); only ordering and coordinator choice move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .base import RequestContext, RequestMiddleware
from .latency import BADNESS_THRESHOLD, NodeRttTracker
from .registry import MiddlewareBuildContext, register_middleware

__all__ = ["RttAwareWriteRouting"]


class RttAwareWriteRouting(RequestMiddleware):
    """Order write fan-out and prefer coordinators by per-node RTT estimates."""

    name = "rtt-aware-write-routing"

    def __init__(self, tracker: NodeRttTracker) -> None:
        self._tracker = tracker
        self._rotation = 0
        self.writes_ordered = 0
        """Writes whose fan-out order this middleware rewrote."""

        self.coordinators_preferred = 0
        """Operations steered to a preferred (healthy, low-RTT) coordinator."""

    def order_write_targets(
        self, ctx: RequestContext, live: Sequence[str]
    ) -> Optional[List[str]]:
        ranked, unknown, _ = self._tracker.ranked(live)
        self.writes_ordered += 1
        return [pair[1] for pair in ranked] + unknown  # unknown nodes go last

    def preferred_coordinator(self, serving: Sequence[str]) -> Optional[str]:
        if len(serving) <= 1:
            return None
        ranked, unknown, slow = self._tracker.ranked(serving)
        if not slow:
            return None  # no RTT signal, or nobody to avoid: keep round-robin
        healthy = len(ranked) - slow
        self.coordinators_preferred += 1
        # Unknown nodes stay in the pool (so they keep serving and get
        # sampled); only meaningfully-slow sampled nodes are skipped.
        index = self._rotation % (healthy + len(unknown))
        self._rotation += 1
        return ranked[index][1] if index < healthy else unknown[index - healthy]

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "badness_threshold": BADNESS_THRESHOLD,
            "writes_ordered": self.writes_ordered,
            "coordinators_preferred": self.coordinators_preferred,
        }


@register_middleware("rtt-aware-write-routing")
def _build_rtt_aware_write_routing(ctx: MiddlewareBuildContext) -> RttAwareWriteRouting:
    return RttAwareWriteRouting(ctx.coordinator.rtt_tracker())
