"""Speculative (hedged) backup reads against fail-slow replicas.

Tail latency in replicated stores is dominated not by crashed nodes but by
*fail-slow* ones — a replica degraded by a noisy neighbour answers, just
10-50x later than its peers.  A CL=ONE read that happened to pick that
replica pays the whole degradation.  The classic countermeasure (Dean's
"tail at scale" hedged requests, Cassandra's speculative retry) is a
*request-path policy*: if the read has not completed within a latency
budget, fire one backup read at the next-best replica and take whichever
response arrives first.

:class:`RequestHedging` is that policy as a pipeline stage.  It only plans:
``hedge_read`` returns a ``(budget, candidates)`` pair, and the coordinator
owns the mechanics — arming the timer, firing the backup read, cancelling
the timer when the primary wins, and deduplicating acknowledgements so a
hedged read never completes (or gets counted) twice.  The loser's response
still updates the coordinator's RTT tracker when it eventually arrives, then
is dropped by the coordinator's completion bookkeeping.

The budget comes from one of two sources, per the configuration:

* a fixed fraction (``ClusterConfig.hedge_budget_fraction``) of
  ``CoordinatorConfig.operation_timeout`` (static), or
* a p99-derived budget from the monitoring layer — the runner attaches
  :meth:`~repro.monitoring.estimators.RttEstimator.read_latency_percentile`
  as a budget source, clamped into ``[MIN_BUDGET, static budget]``.

Everything here is deterministic: candidate ranking is EWMA order with node
id ties, the timer delay is a pure function of observed state, and no RNG
stream is touched — adding the stage never perturbs other streams, and the
default stack (which lacks it) schedules no hedge timers at all
(PERFORMANCE.md rules 3 and 7).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .base import RequestContext, RequestMiddleware
from .latency import NodeRttTracker
from .registry import MiddlewareBuildContext, register_middleware

__all__ = ["RequestHedging"]


#: The floor of the p99-derived budget, in seconds.
MIN_BUDGET = 0.001

#: Simulated seconds a p99-derived budget is used before it is recomputed.
BUDGET_REFRESH_INTERVAL = 0.5

#: Per-key budgets: a key armed ``HOT_KEY_THRESHOLD`` times within a window
#: of ``HOT_KEY_DECAY_EVERY`` arms (after which every count halves) hedges at
#: ``HOT_KEY_FRACTION`` of the budget.
HOT_KEY_FRACTION = 0.5
HOT_KEY_THRESHOLD = 32
HOT_KEY_DECAY_EVERY = 1024


class RequestHedging(RequestMiddleware):
    """Arm a latency-budget timer per read; plan one backup read past it.

    The stage has an opinion only when the read left at least one live
    replica uncontacted; the backup candidates are the spare replicas in
    EWMA-RTT order (unknown nodes last), so the coordinator's speculative
    read goes to the *next-best* replica the primary selection skipped.
    """

    name = "request-hedging"

    #: Opt in to the coordinator's amortised timer wheel: hedge and timeout
    #: timers are overwhelmingly cancelled, which is exactly the population
    #: the wheel's free lazy cancel targets (PERFORMANCE.md rule 11).
    #: ``None`` would keep timers on the direct heap path.
    timer_wheel_granularity: Optional[float] = 0.025

    def __init__(
        self,
        tracker: NodeRttTracker,
        operation_timeout: float,
        clock: Callable[[], float],
        budget_fraction: float,
    ) -> None:
        self._tracker = tracker
        self._static_budget = budget_fraction * operation_timeout
        self._min_budget = min(MIN_BUDGET, self._static_budget)
        self._budget_source: Optional[Callable[[], float]] = None

        # Budget cache: the p99-derived budget is a sort of the estimator's
        # 512-read window, too dear for every arm, so it is refreshed at
        # most once per ``BUDGET_REFRESH_INTERVAL`` of simulated time — a
        # pure function of the clock and observation history, so runs stay
        # deterministic.
        self._clock = clock
        self._budget_valid_until = -math.inf
        self._cached_budget = self._static_budget

        # Per-key budgets: keys observed hedging far more often than their
        # peers get a tighter budget (hedge *earlier*), bounding the tail a
        # single hot key can impose.  Pure counting with periodic halving —
        # deterministic, no RNG, memory bounded by the decay.
        self._key_counts: Dict[str, int] = {}
        self._arms_since_decay = 0

        self.hedges_armed = 0
        """Reads for which a hedge timer was armed."""

        self.hedges_cancelled = 0
        """Armed timers cancelled because the read completed inside budget."""

        self.hedges_fired = 0
        """Timers that fired a speculative backup read."""

        self.hedges_won = 0
        """Fired hedges whose backup response completed the read."""

        self.hot_key_hedges = 0
        """Hedges armed at the tightened hot-key budget."""

    @property
    def static_budget(self) -> float:
        """The configured fallback/ceiling hedge budget in seconds."""
        return self._static_budget

    def attach_budget_source(self, source: Callable[[], float]) -> None:
        """Drive the budget from a live estimate (e.g. the RTT estimator's
        p99 read latency).  A non-positive source value falls back to the
        static budget; positive values are clamped into
        ``[MIN_BUDGET, static budget]`` so a cold or absurd estimate can
        neither hedge every read instantly nor disable hedging entirely.
        """
        self._budget_source = source

    def current_budget(self) -> float:
        """The budget the next armed hedge timer will use, in seconds.

        The dynamic budget is cached and refreshed at most once per
        ``BUDGET_REFRESH_INTERVAL`` of simulated time.
        """
        if self._budget_source is None:
            return self._static_budget
        now = self._clock()
        if now < self._budget_valid_until:
            return self._cached_budget
        self._budget_valid_until = now + BUDGET_REFRESH_INTERVAL
        dynamic = float(self._budget_source())
        if dynamic > 0.0:
            budget = min(max(dynamic, self._min_budget), self._static_budget)
        else:
            budget = self._static_budget
        self._cached_budget = budget
        return budget

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def hedge_read(
        self, ctx: RequestContext, live: Sequence[str], targets: Sequence[str]
    ) -> Optional[Tuple[float, List[str]]]:
        # The spares, next-best first: the live replicas' ranking minus the
        # replicas the read already went to; unknown replicas after sampled.
        ranked, unknown, _ = self._tracker.ranked(live)
        spares = [pair[1] for pair in ranked if pair[1] not in targets]
        if unknown:
            spares += [node_id for node_id in unknown if node_id not in targets]
        if not spares:
            return None
        self.hedges_armed += 1
        budget = self.current_budget()
        # Per-key tightening: a key hedging far more often than its peers
        # inside the current decay window is paying for a slow replica on
        # a hot path — hedge it earlier.  Counting only; no RNG.
        key = ctx.key if ctx is not None else None
        if key is not None:
            counts = self._key_counts
            count = counts.get(key, 0) + 1
            counts[key] = count
            self._arms_since_decay += 1
            if self._arms_since_decay >= HOT_KEY_DECAY_EVERY:
                self._arms_since_decay = 0
                self._key_counts = {k: c >> 1 for k, c in counts.items() if c >= 2}
            if count >= HOT_KEY_THRESHOLD:
                self.hot_key_hedges += 1
                budget = max(self._min_budget, budget * HOT_KEY_FRACTION)
        return (budget, spares)

    def on_complete(self, ctx: RequestContext, result: object) -> None:
        if not ctx.hedge_armed:
            return
        if ctx.hedge_node is None:
            # The read finished inside the budget; the coordinator cancelled
            # the timer before it could fire.
            self.hedges_cancelled += 1
            return
        self.hedges_fired += 1
        if ctx.completed_by == ctx.hedge_node:
            self.hedges_won += 1

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "static_budget": self._static_budget,
            "current_budget": self.current_budget(),
            "hedges_armed": self.hedges_armed,
            "hedges_cancelled": self.hedges_cancelled,
            "hedges_fired": self.hedges_fired,
            "hedges_won": self.hedges_won,
            "hot_key_hedges": self.hot_key_hedges,
            "hot_keys_tracked": len(self._key_counts),
            "timer_wheel_granularity": self.timer_wheel_granularity,
        }


@register_middleware("request-hedging")
def _build_request_hedging(ctx: MiddlewareBuildContext) -> RequestHedging:
    simulator = ctx.simulator
    return RequestHedging(
        ctx.coordinator.rtt_tracker(),
        operation_timeout=ctx.coordinator.config.operation_timeout,
        clock=lambda: simulator.now,
        budget_fraction=ctx.cluster.config.hedge_budget_fraction,
    )
