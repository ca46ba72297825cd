"""Plan phase of the MAPE-K loop: one action or none per round.

A policy is a plain function ``decide(analysis, knowledge, sla)`` that
returns one :class:`ReconfigurationAction` or ``None``.  It reads the
round's one observation (``analysis.observation``: node count, replication
factor, both consistency levels, the tier quota scales) and its one forecast
(``analysis.forecast_load``, the peak the analyzer computed), and nothing
else about the cluster.  :data:`POLICIES` names every policy; the controller
and the CLI both read it.

* ``static`` never acts.  Run on a peak-sized cluster with strict levels it
  is also the over-provisioned baseline: the over-provisioning lives in the
  scenario's initial cluster, not in the policy.
* ``reactive_threshold`` is the industry-standard rule (EC2 target tracking,
  Kubernetes HPA): add a node above a mean-utilisation high-water mark,
  remove one below a low-water mark.  It knows nothing of consistency, SLAs
  or the future.
* ``predictive`` scales towards the node count the forecast load needs,
  before the load arrives, but ignores the consistency knobs: against
  ``sla_driven`` it isolates the value of consistency awareness (E5), and
  swapping its forecaster isolates the value of better prediction (E6).
* ``sla_driven`` is the paper's policy.  It answers two questions every
  round:

  1. **Which consistency levels does the SLA imply right now?**  Using the
     PBS-style staleness model fitted to the measured replication lag, it
     walks the consistency ladder from cheapest (ONE/ONE) upwards and picks
     the first (read, write) pair whose predicted stale-read probability
     meets the SLA's staleness objective — the direct operationalisation of
     "derive consistency-related parameters from the SLA" (RQ2).
  2. **How many nodes does the forecast load require?**  The capacity model
     converts the forecast peak into a node count at the target utilisation.

  It reconciles those targets with the current configuration and the
  analyzer's root causes by a fixed priority (availability > staleness >
  latency > cost), and avoids actions the root cause rules out (no node
  additions while the network is congested, the paper's own example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.types import ConsistencyLevel
from .actions import (
    AddNodeAction,
    ReconfigurationAction,
    RemoveNodeAction,
    SetReadConsistencyAction,
    SetTierQuotaScaleAction,
    SetWriteConsistencyAction,
)
from .analyzer import AnalysisResult, RootCause, Symptom
from .knowledge import KnowledgeBase
from .sla import SLA

__all__ = [
    "POLICIES",
    "Policy",
    "ConsistencyTarget",
    "derive_consistency_target",
    "desired_node_count",
]

#: Bounds on the node count every policy scales between.
MIN_NODES = 2
MAX_NODES = 32
#: Utilisation the cluster is sized for.
TARGET_UTILIZATION = 0.6
#: Max utilisation above which ``sla_driven`` adds capacity regardless of forecast.
SCALE_OUT_UTILIZATION = 0.75
#: A node is only removed if the remaining nodes stay below this utilisation.
SCALE_IN_HEADROOM = 0.45
#: Stale-read probability the derived consistency configuration must meet.
STALE_PROBABILITY_TARGET = 0.02
#: Fraction of the SLO window the PBS prediction must fit within.
STALENESS_SAFETY_FACTOR = 0.8
#: Multiplier applied to a tier's quota scale per tightening step.
QUOTA_TIGHTEN_FACTOR = 0.5
#: Lowest quota scale arbitration may impose on any tier.
QUOTA_FLOOR = 0.25
#: Tiers eligible for quota tightening, cheapest (lowest SLO) first.  Gold is
#: deliberately absent: the top tier is never shed by arbitration.
QUOTA_TIGHTEN_ORDER = ("bronze", "silver")
#: Mean utilisation above which ``reactive_threshold`` adds a node, and below
#: which it removes one.  It reads the mean, not the max ``sla_driven`` reads.
REACTIVE_SCALE_OUT_UTILIZATION = 0.75
REACTIVE_SCALE_IN_UTILIZATION = 0.3
#: How many nodes below the current count the ``predictive`` target must fall
#: before it scales in.
SCALE_IN_HYSTERESIS = 1

#: ``decide(analysis, knowledge, sla)``: this round's one action, or ``None``.
Policy = Callable[[AnalysisResult, KnowledgeBase, SLA], Optional[ReconfigurationAction]]


@dataclass
class ConsistencyTarget:
    """The consistency configuration the planner derived from the SLA."""

    read_level: ConsistencyLevel
    write_level: ConsistencyLevel


# ----------------------------------------------------------------------
# The baselines
# ----------------------------------------------------------------------
def decide_static(
    _analysis: AnalysisResult, _knowledge: KnowledgeBase, _sla: SLA
) -> Optional[ReconfigurationAction]:
    """Never reconfigures anything."""
    return None


def decide_reactive_threshold(
    analysis: AnalysisResult, _knowledge: KnowledgeBase, _sla: SLA
) -> Optional[ReconfigurationAction]:
    """Utilisation-threshold scaling, consistency-agnostic."""
    observation = analysis.observation
    if (
        observation.mean_utilization >= REACTIVE_SCALE_OUT_UTILIZATION
        and observation.node_count < MAX_NODES
    ):
        return AddNodeAction()
    if observation.mean_utilization <= REACTIVE_SCALE_IN_UTILIZATION and (
        observation.node_count > max(MIN_NODES, observation.replication_factor)
    ):
        return RemoveNodeAction()
    return None


def decide_predictive(
    analysis: AnalysisResult, knowledge: KnowledgeBase, _sla: SLA
) -> Optional[ReconfigurationAction]:
    """Scale towards the node count the forecast load will need.

    Sizes from the larger of throughput and offered rate, and never below
    the replication factor.
    """
    observation = analysis.observation
    node_count = observation.node_count
    floor = max(MIN_NODES, observation.replication_factor)
    current_load = max(observation.throughput_ops, observation.offered_rate)
    sizing_load = max(analysis.forecast_load, current_load)
    needed = knowledge.capacity.nodes_needed(sizing_load, TARGET_UTILIZATION)
    target_nodes = max(floor, min(MAX_NODES, needed))
    if target_nodes > node_count:
        return AddNodeAction()
    if target_nodes <= node_count - SCALE_IN_HYSTERESIS and node_count > floor:
        return RemoveNodeAction()
    return None


# ----------------------------------------------------------------------
# The paper's policy
# ----------------------------------------------------------------------
def derive_consistency_target(
    knowledge: KnowledgeBase, sla: SLA, replication_factor: int
) -> ConsistencyTarget:
    """Pick the cheapest (read, write) levels satisfying the staleness SLO."""
    staleness_slo = sla.staleness_objective()
    model = knowledge.staleness_model
    ladder = ConsistencyLevel.ladder()

    if staleness_slo is None:
        return ConsistencyTarget(ConsistencyLevel.ONE, ConsistencyLevel.ONE)

    probability_target = min(STALE_PROBABILITY_TARGET, staleness_slo.max_stale_read_fraction)
    # The SLO tolerates staleness *within* its window bound; what it forbids
    # is observing stale data beyond that window.  The prediction is
    # therefore evaluated at the window bound: "a read issued max_window_p95
    # seconds after the ack must (almost) never be stale".
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
                predicted_window <= staleness_slo.max_window_p95 * STALENESS_SAFETY_FACTOR
            )
        if probability <= probability_target and window_ok:
            return ConsistencyTarget(read_level, write_level)

    # Even the strictest ladder entry misses the target: use it anyway.
    return ConsistencyTarget(ladder[-1], ladder[-1])


def desired_node_count(analysis: AnalysisResult, knowledge: KnowledgeBase) -> int:
    """Node count the forecast peak needs at the target utilisation.

    Sizes from throughput alone (``predictive`` also reads the offered rate).
    """
    sizing_load = max(analysis.forecast_load, analysis.observation.throughput_ops)
    needed = knowledge.capacity.nodes_needed(sizing_load, TARGET_UTILIZATION)
    return max(MIN_NODES, min(MAX_NODES, needed))


def decide_sla_driven(
    analysis: AnalysisResult, knowledge: KnowledgeBase, sla: SLA
) -> Optional[ReconfigurationAction]:
    """Consistency-aware, SLA-driven planning (the paper's contribution)."""
    observation = analysis.observation
    current_nodes = observation.node_count
    current_read = observation.read_consistency
    current_write = observation.write_consistency
    tier_scales = observation.tier_scales

    target = derive_consistency_target(knowledge, sla, observation.replication_factor or 1)
    desired_nodes = desired_node_count(analysis, knowledge)
    congested = analysis.caused_by(RootCause.NETWORK_CONGESTION)

    # Priority 1: availability emergencies -> shed low-tier load first
    # (free and instant), then capacity.
    if analysis.has(Symptom.AVAILABILITY_VIOLATION):
        shed = _tighten_quota_action(tier_scales)
        if shed is not None:
            return shed
        if current_nodes < MAX_NODES and not congested:
            return AddNodeAction()
        # Under congestion more traffic hurts; shed consistency cost instead.
        if current_write is not ConsistencyLevel.ONE:
            return SetWriteConsistencyAction(ConsistencyLevel.ONE)
        return None

    # Priority 2: staleness violations / risk.
    if analysis.has(Symptom.STALENESS_VIOLATION) or analysis.has(Symptom.STALENESS_AT_RISK):
        if analysis.caused_by(RootCause.CPU_SATURATION) and not congested:
            if current_nodes < MAX_NODES:
                return AddNodeAction()
        # Derive the consistency config from the SLA (RQ2) and converge
        # towards it one step at a time.
        action = _step_towards_consistency_target(current_read, current_write, target)
        if action is not None:
            return action
        # The model believes the current levels suffice, yet clients are
        # still observing stale data (the model can underestimate the lag
        # distribution's tail).  Trust the measurement: strengthen reads one
        # more step before spending money on capacity.
        staleness_slo = sla.staleness_objective()
        if (
            staleness_slo is not None
            and observation.stale_read_fraction > staleness_slo.max_stale_read_fraction
            and current_read is not ConsistencyLevel.ALL
        ):
            return SetReadConsistencyAction(_next_level_up(current_read, ConsistencyLevel.ALL))
        # The lag itself is the problem: add capacity unless the network is
        # the bottleneck.
        if not congested and current_nodes < MAX_NODES:
            return AddNodeAction()
        return None

    # Priority 3: latency violations / risk.
    if analysis.has(Symptom.LATENCY_VIOLATION) or analysis.has(Symptom.LATENCY_AT_RISK):
        if analysis.caused_by(RootCause.CONSISTENCY_TOO_STRICT):
            action = _relax_consistency_step(current_read, current_write, target)
            if action is not None:
                return action
        overloaded = (
            analysis.caused_by(RootCause.CPU_SATURATION)
            or observation.max_utilization >= SCALE_OUT_UTILIZATION
        )
        if overloaded:
            # Arbitration: under genuine overload, tighten the cheapest
            # tier's quota before paying for a node.  Latency caused by
            # strict consistency (handled above) must not shed tenants.
            shed = _tighten_quota_action(tier_scales)
            if shed is not None:
                return shed
        if current_nodes < MAX_NODES and (overloaded or desired_nodes > current_nodes):
            return AddNodeAction()
        return None

    # Priority 4: proactive capacity for forecast load growth.
    if desired_nodes > current_nodes and current_nodes < MAX_NODES:
        return AddNodeAction()
    if observation.max_utilization >= SCALE_OUT_UTILIZATION:
        if current_nodes < MAX_NODES and not congested:
            return AddNodeAction()

    # Priority 5: cost optimisation when everything has ample headroom.
    if analysis.has(Symptom.COST_WASTE):
        # Undo arbitration first: re-admit shed tenant load before any other
        # cost move, highest tier first.
        restore = _restore_quota_action(tier_scales)
        if restore is not None:
            return restore
        # Relaxing below the derived target is never allowed, but a current
        # config *stricter* than the target steps down, to stop paying
        # latency for guarantees the SLA does not ask for.
        action = _relax_consistency_step(current_read, current_write, target)
        if action is not None:
            return action
        if _safe_to_scale_in(analysis, knowledge, desired_nodes):
            return RemoveNodeAction()
    return None


#: Every policy by the name ``ControllerConfig.policy`` and ``--policy`` take.
POLICIES: Dict[str, Policy] = {
    "static": decide_static,
    "reactive_threshold": decide_reactive_threshold,
    "predictive": decide_predictive,
    "sla_driven": decide_sla_driven,
}


# ----------------------------------------------------------------------
# Helpers of the SLA-driven policy
# ----------------------------------------------------------------------
def _step_towards_consistency_target(
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


def _tighten_quota_action(tier_scales: Dict[str, float]) -> Optional[ReconfigurationAction]:
    """One quota-tightening step on the cheapest still-sheddable tier.

    ``tier_scales`` is empty without an admission stage, which disables
    arbitration entirely.
    """
    for tier in QUOTA_TIGHTEN_ORDER:
        scale = tier_scales.get(tier)
        if scale is not None and scale > QUOTA_FLOOR + 1e-9:
            return SetTierQuotaScaleAction(tier, max(QUOTA_FLOOR, scale * QUOTA_TIGHTEN_FACTOR))
    return None


def _restore_quota_action(tier_scales: Dict[str, float]) -> Optional[ReconfigurationAction]:
    """One quota-restoring step, reversing tightening highest tier first."""
    for tier in reversed(QUOTA_TIGHTEN_ORDER):
        scale = tier_scales.get(tier)
        if scale is not None and scale < 1.0 - 1e-9:
            return SetTierQuotaScaleAction(tier, min(1.0, scale / QUOTA_TIGHTEN_FACTOR))
    return None


def _safe_to_scale_in(
    analysis: AnalysisResult, knowledge: KnowledgeBase, desired_nodes: int
) -> bool:
    """Whether removing one node keeps utilisation and RF constraints safe."""
    observation = analysis.observation
    current_nodes = observation.node_count
    if current_nodes <= max(MIN_NODES, observation.replication_factor):
        return False
    if desired_nodes >= current_nodes:
        return False
    latest_load = max(observation.throughput_ops, observation.offered_rate)
    sizing_load = max(analysis.forecast_load, latest_load)
    capacity = knowledge.capacity.ops_per_node * (current_nodes - 1)
    if capacity <= 0:
        return False
    return sizing_load / capacity <= SCALE_IN_HEADROOM


def _next_level_up(current: ConsistencyLevel, target: ConsistencyLevel) -> ConsistencyLevel:
    """The next rung of the ladder above ``current`` (clamped to ``target``)."""
    for level in ConsistencyLevel.ladder():
        if level.strictness > current.strictness:
            if level.strictness >= target.strictness:
                return target
            return level
    return target


def _next_level_down(current: ConsistencyLevel, target: ConsistencyLevel) -> ConsistencyLevel:
    """The next rung of the ladder below ``current`` (clamped to ``target``)."""
    for level in reversed(ConsistencyLevel.ladder()):
        if level.strictness < current.strictness:
            if level.strictness <= target.strictness:
                return target
            return level
    return target
