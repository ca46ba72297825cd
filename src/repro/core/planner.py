"""Planning phase: deriving configuration from the SLA (research question 2).

The planner answers two questions every round:

1. **Which consistency levels does the SLA imply right now?**  Using the
   PBS-style staleness model fitted to the measured replication lag, it walks
   the consistency ladder from cheapest (ONE/ONE) upwards and picks the first
   (read, write) pair whose predicted stale-read probability meets the SLA's
   staleness objective — the direct operationalisation of "derive
   consistency-related parameters from the SLA".
2. **How many nodes does the forecast load require?**  The capacity model
   converts the forecast peak load into a node count at the target
   utilisation; the answer feeds proactive scaling.

It then reconciles those targets with the current configuration and the
analyzer's root causes, producing at most one action per round, ordered by a
fixed priority (availability > staleness > latency > cost), and explicitly
avoiding actions the root cause rules out (e.g. no replica/node additions
while the network is congested, the paper's own example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.types import ConsistencyLevel
from .actions import (
    AddNodeAction,
    NoAction,
    ReconfigurationAction,
    RemoveNodeAction,
    SetReadConsistencyAction,
    SetTierQuotaScaleAction,
    SetWriteConsistencyAction,
)
from .analyzer import AnalysisResult, RootCause, Symptom
from .knowledge import KnowledgeBase
from .sla import SLA

__all__ = ["SLAPlanner", "ConsistencyTarget"]

#: Utilisation the cluster is sized for.
TARGET_UTILIZATION = 0.6
#: Reactive ceiling: above this, capacity is added regardless of forecast.
SCALE_OUT_UTILIZATION = 0.75
#: A node is only removed if the remaining nodes stay below this utilisation.
SCALE_IN_HEADROOM = 0.45
#: Provisioning lead time: size the cluster for the peak this far ahead.
FORECAST_HORIZON = 300.0
#: Stale-read probability the derived consistency configuration must meet.
STALE_PROBABILITY_TARGET = 0.02
#: Fraction of the SLO window the PBS prediction must fit within.
STALENESS_SAFETY_FACTOR = 0.8
#: Bounds on the node count the planner sizes the cluster to.
MIN_NODES = 2
MAX_NODES = 32
#: Multiplier applied to a tier's quota scale per tightening step.
QUOTA_TIGHTEN_FACTOR = 0.5
#: Lowest quota scale arbitration may impose on any tier.
QUOTA_FLOOR = 0.25
#: Tiers eligible for quota tightening, cheapest (lowest SLO) first.  Gold is
#: deliberately absent: the top tier is never shed by arbitration.
QUOTA_TIGHTEN_ORDER = ("bronze", "silver")


@dataclass
class ConsistencyTarget:
    """The consistency configuration the planner derived from the SLA."""

    read_level: ConsistencyLevel
    write_level: ConsistencyLevel


class SLAPlanner:
    """Chooses at most one reconfiguration action per evaluation round."""

    # ------------------------------------------------------------------
    # RQ2: derive consistency parameters from the SLA
    # ------------------------------------------------------------------
    def derive_consistency_target(
        self,
        knowledge: KnowledgeBase,
        sla: SLA,
        replication_factor: int,
    ) -> ConsistencyTarget:
        """Pick the cheapest (read, write) levels satisfying the staleness SLO."""
        staleness_slo = sla.staleness_objective()
        model = knowledge.staleness_model
        ladder = ConsistencyLevel.ladder()

        if staleness_slo is None:
            return ConsistencyTarget(ConsistencyLevel.ONE, ConsistencyLevel.ONE)

        probability_target = min(
            STALE_PROBABILITY_TARGET, staleness_slo.max_stale_read_fraction
        )
        # The SLO tolerates staleness *within* its window bound; what it
        # forbids is observing stale data beyond that window.  The prediction
        # is therefore evaluated at the window bound: "a read issued
        # max_window_p95 seconds after the ack must (almost) never be stale".
        evaluation_horizon = max(1e-3, staleness_slo.max_window_p95)
        candidates: List[Tuple[int, ConsistencyLevel, ConsistencyLevel]] = []
        for write_level in ladder:
            for read_level in ladder:
                cost_rank = read_level.strictness + write_level.strictness
                candidates.append((cost_rank, read_level, write_level))
        candidates.sort(key=lambda entry: entry[0])

        for _, read_level, write_level in candidates:
            probability = model.stale_probability_for_levels(
                evaluation_horizon, replication_factor, read_level, write_level
            )
            window_ok = True
            if staleness_slo.max_window_p95 > 0:
                predicted_window = model.expected_window_p(0.95)
                strongly_consistent = ConsistencyLevel.is_strongly_consistent(
                    read_level, write_level, replication_factor
                )
                window_ok = strongly_consistent or (
                    predicted_window
                    <= staleness_slo.max_window_p95 * STALENESS_SAFETY_FACTOR
                )
            if probability <= probability_target and window_ok:
                return ConsistencyTarget(read_level, write_level)

        # Even the strictest ladder entry misses the target: use it anyway.
        return ConsistencyTarget(ladder[-1], ladder[-1])

    # ------------------------------------------------------------------
    # Capacity planning
    # ------------------------------------------------------------------
    def desired_node_count(self, knowledge: KnowledgeBase) -> int:
        """Node count required for the forecast peak at the target utilisation."""
        forecast = knowledge.load_forecast_peak(FORECAST_HORIZON)
        latest = knowledge.latest()
        current_load = latest.throughput_ops if latest else 0.0
        sizing_load = max(forecast, current_load)
        needed = knowledge.capacity.nodes_needed(sizing_load, TARGET_UTILIZATION)
        return max(MIN_NODES, min(MAX_NODES, needed))

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def plan(
        self,
        analysis: AnalysisResult,
        knowledge: KnowledgeBase,
        sla: SLA,
        cluster_state: Dict[str, object],
    ) -> List[ReconfigurationAction]:
        """Produce the action(s) for this round (at most one real action)."""
        observation = analysis.observation
        current_nodes = int(cluster_state.get("node_count", observation.node_count))
        replication_factor = int(
            cluster_state.get("replication_factor", observation.replication_factor) or 1
        )
        current_read = _parse_level(str(cluster_state.get("read_consistency", "ONE")))
        current_write = _parse_level(str(cluster_state.get("write_consistency", "ONE")))

        target = self.derive_consistency_target(knowledge, sla, replication_factor)
        desired_nodes = self.desired_node_count(knowledge)
        congested = analysis.caused_by(RootCause.NETWORK_CONGESTION)
        tier_scales = cluster_state.get("admission_tier_scales")

        # Priority 1: availability emergencies -> shed low-tier load first
        # (free and instant), then capacity.
        if analysis.has(Symptom.AVAILABILITY_VIOLATION):
            shed = self._tighten_quota_action(tier_scales)
            if shed is not None:
                return [shed]
            if current_nodes < MAX_NODES and not congested:
                return [AddNodeAction()]
            # Under congestion more traffic hurts; shed consistency cost instead.
            if current_write is not ConsistencyLevel.ONE:
                return [SetWriteConsistencyAction(ConsistencyLevel.ONE)]
            return [NoAction()]

        # Priority 2: staleness violations / risk.
        if analysis.has(Symptom.STALENESS_VIOLATION) or analysis.has(Symptom.STALENESS_AT_RISK):
            if analysis.caused_by(RootCause.CPU_SATURATION) and not congested:
                if current_nodes < MAX_NODES:
                    return [AddNodeAction()]
            # Derive the consistency config from the SLA (RQ2) and converge
            # towards it one step at a time.
            action = self._step_towards_consistency_target(
                current_read, current_write, target
            )
            if action is not None:
                return [action]
            # The model believes the current levels suffice, yet clients are
            # still observing stale data (the model can underestimate the lag
            # distribution's tail).  Trust the measurement: strengthen reads
            # one more step before spending money on capacity.
            staleness_slo = sla.staleness_objective()
            if (
                staleness_slo is not None
                and observation.stale_read_fraction > staleness_slo.max_stale_read_fraction
                and current_read is not ConsistencyLevel.ALL
            ):
                return [
                    SetReadConsistencyAction(_next_level_up(current_read, ConsistencyLevel.ALL))
                ]
            # The lag itself is the problem: add capacity unless the network
            # is the bottleneck.
            if not congested and current_nodes < MAX_NODES:
                return [AddNodeAction()]
            return [NoAction()]

        # Priority 3: latency violations / risk.
        if analysis.has(Symptom.LATENCY_VIOLATION) or analysis.has(Symptom.LATENCY_AT_RISK):
            if analysis.caused_by(RootCause.CONSISTENCY_TOO_STRICT):
                action = self._relax_consistency_step(current_read, current_write, target)
                if action is not None:
                    return [action]
            overloaded = (
                analysis.caused_by(RootCause.CPU_SATURATION)
                or observation.max_utilization >= SCALE_OUT_UTILIZATION
            )
            if overloaded:
                # Arbitration: under genuine overload, tighten the cheapest
                # tier's quota before paying for a node.  Latency caused by
                # strict consistency (handled above) must not shed tenants.
                shed = self._tighten_quota_action(tier_scales)
                if shed is not None:
                    return [shed]
            if current_nodes < MAX_NODES and (
                overloaded or desired_nodes > current_nodes
            ):
                return [AddNodeAction()]
            return [NoAction()]

        # Priority 4: proactive capacity for forecast load growth.
        if desired_nodes > current_nodes and current_nodes < MAX_NODES:
            return [AddNodeAction()]
        if observation.max_utilization >= SCALE_OUT_UTILIZATION:
            if current_nodes < MAX_NODES and not congested:
                return [AddNodeAction()]

        # Priority 5: cost optimisation when everything has ample headroom.
        if analysis.has(Symptom.COST_WASTE):
            # Undo arbitration first: re-admit shed tenant load before any
            # other cost move, highest tier first.
            restore = self._restore_quota_action(tier_scales)
            if restore is not None:
                return [restore]
            # First, relax consistency below the derived target is never
            # allowed — but if the current config is *stricter* than the
            # target, step down to stop paying latency for guarantees the
            # SLA does not ask for.
            action = self._relax_consistency_step(current_read, current_write, target)
            if action is not None:
                return [action]
            if self._safe_to_scale_in(observation, knowledge, current_nodes, desired_nodes):
                return [RemoveNodeAction()]

        return [NoAction()]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _step_towards_consistency_target(
        self,
        current_read: ConsistencyLevel,
        current_write: ConsistencyLevel,
        target: ConsistencyTarget,
    ) -> Optional[ReconfigurationAction]:
        """One strengthening step towards the derived target, or ``None``.

        Reads first: they are the cheaper level to strengthen here.
        """
        if target.read_level.strictness > current_read.strictness:
            return SetReadConsistencyAction(_next_level_up(current_read, target.read_level))
        if target.write_level.strictness > current_write.strictness:
            return SetWriteConsistencyAction(_next_level_up(current_write, target.write_level))
        return None

    def _relax_consistency_step(
        self,
        current_read: ConsistencyLevel,
        current_write: ConsistencyLevel,
        target: ConsistencyTarget,
    ) -> Optional[ReconfigurationAction]:
        """One weakening step down towards the derived target, or ``None``."""
        if current_read.strictness > target.read_level.strictness:
            return SetReadConsistencyAction(_next_level_down(current_read, target.read_level))
        if current_write.strictness > target.write_level.strictness:
            return SetWriteConsistencyAction(_next_level_down(current_write, target.write_level))
        return None

    def _tighten_quota_action(
        self, tier_scales: Optional[object]
    ) -> Optional[ReconfigurationAction]:
        """One quota-tightening step on the cheapest still-sheddable tier.

        ``tier_scales`` is the ``admission_tier_scales`` entry of the cluster
        configuration snapshot; ``None`` (no admission stage) disables
        arbitration entirely.
        """
        if not isinstance(tier_scales, dict) or not tier_scales:
            return None
        for tier in QUOTA_TIGHTEN_ORDER:
            scale = tier_scales.get(tier)
            if scale is None:
                continue
            scale = float(scale)
            if scale > QUOTA_FLOOR + 1e-9:
                new_scale = max(
                    QUOTA_FLOOR, scale * QUOTA_TIGHTEN_FACTOR
                )
                return SetTierQuotaScaleAction(tier, new_scale)
        return None

    def _restore_quota_action(
        self, tier_scales: Optional[object]
    ) -> Optional[ReconfigurationAction]:
        """One quota-restoring step, reversing tightening highest tier first."""
        if not isinstance(tier_scales, dict) or not tier_scales:
            return None
        factor = QUOTA_TIGHTEN_FACTOR
        for tier in reversed(QUOTA_TIGHTEN_ORDER):
            scale = tier_scales.get(tier)
            if scale is None:
                continue
            scale = float(scale)
            if scale < 1.0 - 1e-9:
                new_scale = min(1.0, scale / factor) if factor > 0.0 else 1.0
                return SetTierQuotaScaleAction(tier, new_scale)
        return None

    def _safe_to_scale_in(
        self,
        observation,
        knowledge: KnowledgeBase,
        current_nodes: int,
        desired_nodes: int,
    ) -> bool:
        """Whether removing one node keeps utilisation and RF constraints safe."""
        if current_nodes <= max(MIN_NODES, observation.replication_factor):
            return False
        if desired_nodes >= current_nodes:
            return False
        remaining = current_nodes - 1
        forecast = knowledge.load_forecast_peak(FORECAST_HORIZON)
        latest_load = max(observation.throughput_ops, observation.offered_rate)
        sizing_load = max(forecast, latest_load)
        capacity = knowledge.capacity.ops_per_node * remaining
        if capacity <= 0:
            return False
        projected_utilization = sizing_load / capacity
        return projected_utilization <= SCALE_IN_HEADROOM


def _parse_level(value: str) -> ConsistencyLevel:
    try:
        return ConsistencyLevel(value)
    except ValueError:
        return ConsistencyLevel.ONE


def _next_level_up(current: ConsistencyLevel, target: ConsistencyLevel) -> ConsistencyLevel:
    """The next rung of the ladder above ``current`` (clamped to ``target``)."""
    ladder = ConsistencyLevel.ladder()
    for level in ladder:
        if level.strictness > current.strictness:
            if level.strictness >= target.strictness:
                return target
            return level
    return target


def _next_level_down(current: ConsistencyLevel, target: ConsistencyLevel) -> ConsistencyLevel:
    """The next rung of the ladder below ``current`` (clamped to ``target``)."""
    ladder = list(ConsistencyLevel.ladder())
    for level in reversed(ladder):
        if level.strictness < current.strictness:
            if level.strictness <= target.strictness:
                return target
            return level
    return target
