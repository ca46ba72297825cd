"""Unit tests for the analyzer, the SLA-driven policy, actions and the stability guard."""

from __future__ import annotations

from repro.cluster import Cluster, ClusterConfig, ConsistencyLevel, NodeConfig
from repro.core import (
    AddNodeAction,
    Analyzer,
    POLICIES,
    KnowledgeBase,
    RemoveNodeAction,
    RootCause,
    SetReadConsistencyAction,
    SetWriteConsistencyAction,
    SLAEvaluator,
    StabilityConfig,
    StabilityGuard,
    Symptom,
    SystemObservation,
    default_sla,
)
from repro.core.actions import ActionKind, ActionOutcome
from repro.core.planner import derive_consistency_target
from repro.core.sla import SLA, LatencySLO, StalenessSLO
from repro.simulation import Simulator


def observation(**overrides):
    base = dict(
        time=overrides.pop("time", 100.0),
        read_p95_latency=0.02,
        write_p95_latency=0.03,
        failure_fraction=0.0,
        stale_read_fraction=0.0,
        inconsistency_window_p95=0.05,
        inconsistency_window_mean=0.02,
        throughput_ops=100.0,
        offered_rate=100.0,
        mean_utilization=0.5,
        max_utilization=0.6,
        network_congestion=1.0,
        node_count=3,
        replication_factor=3,
        read_consistency=ConsistencyLevel.ONE,
        write_consistency=ConsistencyLevel.ONE,
    )
    base.update(overrides)
    return SystemObservation(**base)


def analyze(obs, sla=None, knowledge=None):
    sla = sla or default_sla()
    knowledge = knowledge or KnowledgeBase()
    knowledge.record_observation(obs)
    evaluation = SLAEvaluator(sla).evaluate(obs)
    return Analyzer().analyze(obs, evaluation, knowledge, sla), knowledge, sla


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
def test_healthy_observation_has_no_problem_symptoms():
    analysis, _, _ = analyze(observation())
    assert not analysis.symptoms & {
        Symptom.LATENCY_VIOLATION,
        Symptom.STALENESS_VIOLATION,
        Symptom.AVAILABILITY_VIOLATION,
        Symptom.LATENCY_AT_RISK,
        Symptom.STALENESS_AT_RISK,
    }
    assert not analysis.caused_by(RootCause.CPU_SATURATION)


def test_latency_violation_detected():
    analysis, _, _ = analyze(observation(read_p95_latency=0.5))
    assert analysis.has(Symptom.LATENCY_VIOLATION)


def test_staleness_violation_and_replication_lag_cause():
    analysis, _, _ = analyze(observation(inconsistency_window_p95=2.0, max_utilization=0.5))
    assert analysis.has(Symptom.STALENESS_VIOLATION)
    assert analysis.caused_by(RootCause.REPLICATION_LAG)
    assert analysis.caused_by(RootCause.CONSISTENCY_TOO_WEAK)


def test_cpu_saturation_detected():
    analysis, _, _ = analyze(observation(max_utilization=0.95))
    assert analysis.caused_by(RootCause.CPU_SATURATION)


def test_network_congestion_detected():
    analysis, _, _ = analyze(observation(network_congestion=3.0))
    assert analysis.caused_by(RootCause.NETWORK_CONGESTION)


def test_cost_waste_requires_headroom_and_idle_cluster():
    analysis, _, _ = analyze(observation(mean_utilization=0.1, max_utilization=0.2))
    assert analysis.has(Symptom.COST_WASTE)
    assert analysis.caused_by(RootCause.OVER_PROVISIONED)
    busy, _, _ = analyze(observation(mean_utilization=0.7))
    assert not busy.has(Symptom.COST_WASTE)


def test_consistency_too_strict_detected():
    obs = observation(
        read_p95_latency=0.2,
        read_consistency=ConsistencyLevel.QUORUM,
        max_utilization=0.5,
        inconsistency_window_p95=0.01,
    )
    analysis, _, _ = analyze(obs)
    assert analysis.caused_by(RootCause.CONSISTENCY_TOO_STRICT)


def test_load_trend_root_causes():
    knowledge = KnowledgeBase()
    for i in range(20):
        knowledge.record_observation(observation(time=i * 30.0, throughput_ops=50.0 + 20.0 * i))
    obs = observation(time=600.0, throughput_ops=450.0)
    evaluation = SLAEvaluator(default_sla()).evaluate(obs)
    analysis = Analyzer().analyze(obs, evaluation, knowledge, default_sla())
    assert analysis.caused_by(RootCause.LOAD_INCREASING)


# ----------------------------------------------------------------------
# The SLA-driven policy
# ----------------------------------------------------------------------
def plan(analysis, knowledge, sla):
    return POLICIES["sla_driven"](analysis, knowledge, sla)


def test_planner_derives_strong_levels_for_strict_staleness():
    knowledge = KnowledgeBase()
    knowledge.staleness_model.update_lag(1.0)  # very laggy replicas
    sla = SLA(objectives=[StalenessSLO(max_window_p95=0.05, max_stale_read_fraction=0.001)])
    target = derive_consistency_target(knowledge, sla, replication_factor=3)
    assert target.read_level.required_acks(3) + target.write_level.required_acks(3) > 3


def test_planner_keeps_weak_levels_for_relaxed_staleness():
    knowledge = KnowledgeBase()
    knowledge.staleness_model.update_lag(0.001)
    sla = SLA(objectives=[StalenessSLO(max_window_p95=10.0, max_stale_read_fraction=0.5)])
    target = derive_consistency_target(knowledge, sla, replication_factor=3)
    assert target.read_level is ConsistencyLevel.ONE
    assert target.write_level is ConsistencyLevel.ONE


def test_planner_adds_node_on_availability_violation():
    analysis, knowledge, sla = analyze(observation(failure_fraction=0.2, max_utilization=0.9))
    assert isinstance(plan(analysis, knowledge, sla), AddNodeAction)


def test_planner_strengthens_consistency_on_staleness_violation_without_saturation():
    analysis, knowledge, sla = analyze(
        observation(stale_read_fraction=0.2, inconsistency_window_p95=1.0, max_utilization=0.4)
    )
    action = plan(analysis, knowledge, sla)
    assert isinstance(action, (SetReadConsistencyAction, SetWriteConsistencyAction))


def test_planner_prefers_capacity_when_staleness_is_due_to_saturation():
    analysis, knowledge, sla = analyze(
        observation(stale_read_fraction=0.2, inconsistency_window_p95=1.0, max_utilization=0.95)
    )
    assert isinstance(plan(analysis, knowledge, sla), AddNodeAction)


def test_planner_avoids_adding_nodes_under_network_congestion():
    analysis, knowledge, sla = analyze(
        observation(
            failure_fraction=0.2,
            network_congestion=3.0,
            write_consistency=ConsistencyLevel.QUORUM,
        )
    )
    action = plan(analysis, knowledge, sla)
    # Shed the write level's cost instead of adding traffic.
    assert isinstance(action, SetWriteConsistencyAction)
    assert action.describe() == "set_write_consistency:ONE"


def test_planner_relaxes_consistency_when_latency_hurts_and_staleness_is_fine():
    obs = observation(
        read_p95_latency=0.3,
        read_consistency=ConsistencyLevel.QUORUM,
        inconsistency_window_p95=0.001,
        inconsistency_window_mean=0.0005,
        max_utilization=0.4,
    )
    knowledge = KnowledgeBase()
    knowledge.staleness_model.update_lag(0.001)
    analysis, knowledge, sla = analyze(obs, knowledge=knowledge)
    action = plan(analysis, knowledge, sla)
    assert isinstance(action, (SetReadConsistencyAction, AddNodeAction))
    if isinstance(action, SetReadConsistencyAction):
        assert action._level.strictness < ConsistencyLevel.QUORUM.strictness


def test_planner_scales_in_when_overprovisioned():
    obs = observation(
        mean_utilization=0.05,
        max_utilization=0.1,
        throughput_ops=20.0,
        offered_rate=20.0,
        node_count=6,
        inconsistency_window_p95=0.001,
        inconsistency_window_mean=0.001,
    )
    knowledge = KnowledgeBase()
    knowledge.staleness_model.update_lag(0.001)
    for i in range(5):
        knowledge.record_observation(obs)
    analysis, knowledge, sla = analyze(obs, knowledge=knowledge)
    assert isinstance(plan(analysis, knowledge, sla), RemoveNodeAction)


def test_planner_no_action_when_healthy_and_sized_right():
    analysis, knowledge, sla = analyze(observation(mean_utilization=0.55, max_utilization=0.6))
    assert plan(analysis, knowledge, sla) is None


# ----------------------------------------------------------------------
# Actions applied to a real cluster
# ----------------------------------------------------------------------
def test_actions_apply_to_cluster():
    simulator = Simulator(seed=1)
    cluster = Cluster(
        simulator,
        ClusterConfig(initial_nodes=3, replication_factor=2, node=NodeConfig(ops_capacity=500.0)),
    )
    outcome = AddNodeAction().apply(cluster, simulator.now)
    assert outcome.applied
    assert outcome.kind is ActionKind.SCALE_OUT
    simulator.run_until(30.0)

    outcome = SetReadConsistencyAction(ConsistencyLevel.QUORUM).apply(
        cluster, simulator.now
    )
    assert outcome.applied
    assert cluster.read_consistency is ConsistencyLevel.QUORUM

    outcome = SetWriteConsistencyAction(ConsistencyLevel.QUORUM).apply(
        cluster, simulator.now
    )
    assert cluster.write_consistency is ConsistencyLevel.QUORUM

    outcome = RemoveNodeAction().apply(cluster, simulator.now)
    assert outcome.applied
    assert outcome.kind is ActionKind.SCALE_IN


def test_failed_action_reports_error():
    simulator = Simulator(seed=2)
    cluster = Cluster(
        simulator, ClusterConfig(initial_nodes=2, replication_factor=2, max_nodes=2)
    )
    outcome = AddNodeAction().apply(cluster, simulator.now)
    assert not outcome.applied
    assert outcome.error
    outcome = RemoveNodeAction().apply(cluster, simulator.now)
    assert not outcome.applied


# ----------------------------------------------------------------------
# Stability guard
# ----------------------------------------------------------------------
def make_analysis_with(symptoms):
    analysis, _, _ = analyze(observation())
    analysis.symptoms = set(symptoms)
    return analysis


def test_guard_blocks_within_cooldown():
    guard = StabilityGuard(StabilityConfig(required_persistence=1))
    action = AddNodeAction()
    assert guard.allows(action, now=100.0)
    outcome = action
    guard.record_outcome(
        type("O", (), {"applied": True, "kind": ActionKind.SCALE_OUT, "time": 100.0})()
    )
    assert not guard.allows(AddNodeAction(), now=150.0)
    assert guard.allows(AddNodeAction(), now=400.0)
    assert guard.blocked_by_cooldown == 1


def test_guard_requires_persistent_symptoms():
    guard = StabilityGuard(StabilityConfig(required_persistence=3))
    analysis = make_analysis_with({Symptom.LATENCY_VIOLATION})
    guard.observe_analysis(analysis)
    assert not guard.allows(AddNodeAction(), now=10.0, analysis=analysis)
    guard.observe_analysis(analysis)
    guard.observe_analysis(analysis)
    assert guard.allows(AddNodeAction(), now=10.0, analysis=analysis)


def test_guard_lets_emergencies_through_immediately():
    guard = StabilityGuard(StabilityConfig(required_persistence=5))
    analysis = make_analysis_with({Symptom.AVAILABILITY_VIOLATION})
    guard.observe_analysis(analysis)
    assert guard.allows(AddNodeAction(), now=10.0, analysis=analysis)


def test_guard_detects_oscillation_and_freezes_scaling():
    guard = StabilityGuard(
        StabilityConfig(required_persistence=1, cooldown_seconds={}, oscillation_flips=3)
    )

    def outcome(kind, time):
        return type("O", (), {"applied": True, "kind": kind, "time": time})()

    times = [100.0, 200.0, 300.0, 400.0]
    kinds = [ActionKind.SCALE_OUT, ActionKind.SCALE_IN, ActionKind.SCALE_OUT, ActionKind.SCALE_IN]
    for time, kind in zip(times, kinds):
        guard.record_outcome(outcome(kind, time))
    assert guard.oscillations_detected == 1
    assert guard._frozen_until is not None
    # Frozen for 900 s from the fourth flip.
    assert not guard.allows(AddNodeAction(), now=1250.0)
    assert guard.allows(AddNodeAction(), now=1400.0)
    assert guard.stats()["oscillations_detected"] == 1.0


def test_guard_ignores_an_action_that_did_not_apply():
    guard = StabilityGuard(StabilityConfig(required_persistence=1))
    guard.record_outcome(
        ActionOutcome(action="add_node", kind=ActionKind.SCALE_OUT, applied=False, time=100.0)
    )
    assert guard.allows(AddNodeAction(), now=110.0)
