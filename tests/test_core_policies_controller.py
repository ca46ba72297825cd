"""Tests for the scaling policies and the autonomous controller loop."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, ConsistencyLevel, NodeConfig
from repro.core import (
    AutonomousController,
    ControllerConfig,
    KnowledgeBase,
    PredictiveConfig,
    PredictivePolicy,
    ReactiveThresholdConfig,
    ReactiveThresholdPolicy,
    SLADrivenPolicy,
    SLAEvaluator,
    StaticPolicy,
    SystemObservation,
    default_sla,
    make_policy,
)
from repro.core.actions import ActionKind, AddNodeAction, RemoveNodeAction
from repro.core.analyzer import Analyzer
from repro.monitoring import MetricsCollector, MetricsConfig
from repro.simulation import Simulator
from repro.workload import BALANCED, ConstantLoad, StepLoad, WorkloadGenerator, WorkloadSpec


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
        read_consistency="ONE",
        write_consistency="ONE",
    )
    base.update(overrides)
    return SystemObservation(**base)


def decide(policy, obs, knowledge=None):
    sla = default_sla()
    knowledge = knowledge or KnowledgeBase()
    knowledge.record_observation(obs)
    evaluation = SLAEvaluator(sla).evaluate(obs)
    analysis = Analyzer().analyze(obs, evaluation, knowledge, sla)
    state = {
        "node_count": obs.node_count,
        "replication_factor": obs.replication_factor,
        "read_consistency": obs.read_consistency,
        "write_consistency": obs.write_consistency,
    }
    return policy.decide(analysis, knowledge, sla, state)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def test_static_policy_never_acts():
    assert decide(StaticPolicy(), observation(mean_utilization=0.99, max_utilization=0.99)) == []


def test_reactive_policy_scales_out_on_high_utilisation():
    actions = decide(ReactiveThresholdPolicy(), observation(mean_utilization=0.9))
    assert isinstance(actions[0], AddNodeAction)


def test_reactive_policy_scales_in_on_low_utilisation():
    actions = decide(
        ReactiveThresholdPolicy(), observation(mean_utilization=0.1, node_count=6)
    )
    assert isinstance(actions[0], RemoveNodeAction)


def test_reactive_policy_respects_bounds():
    actions = decide(
        ReactiveThresholdPolicy(ReactiveThresholdConfig(max_nodes=3)),
        observation(mean_utilization=0.9, node_count=3),
    )
    assert actions == []
    actions = decide(
        ReactiveThresholdPolicy(), observation(mean_utilization=0.1, node_count=3)
    )
    assert actions == []  # cannot drop below RF
    with pytest.raises(ValueError):
        ReactiveThresholdConfig(scale_in_utilization=0.9, scale_out_utilization=0.5).validate()


def test_reactive_policy_ignores_staleness():
    actions = decide(
        ReactiveThresholdPolicy(),
        observation(stale_read_fraction=0.5, inconsistency_window_p95=5.0, mean_utilization=0.5),
    )
    assert actions == []


def test_predictive_policy_scales_for_forecast_load():
    knowledge = KnowledgeBase()
    for i in range(20):
        knowledge.record_observation(
            observation(time=i * 30.0, throughput_ops=100.0 + 40.0 * i, mean_utilization=0.6)
        )
    policy = PredictivePolicy(PredictiveConfig(target_utilization=0.6))
    actions = decide(policy, observation(time=630.0, throughput_ops=900.0), knowledge=knowledge)
    assert isinstance(actions[0], AddNodeAction)


def test_predictive_policy_scales_in_when_forecast_drops():
    knowledge = KnowledgeBase()
    for i in range(20):
        knowledge.record_observation(
            observation(time=i * 30.0, throughput_ops=40.0, node_count=8, mean_utilization=0.1)
        )
    policy = PredictivePolicy(PredictiveConfig(target_utilization=0.6))
    actions = decide(
        policy, observation(time=630.0, throughput_ops=40.0, node_count=8), knowledge=knowledge
    )
    assert isinstance(actions[0], RemoveNodeAction)
    with pytest.raises(ValueError):
        PredictiveConfig(target_utilization=1.5).validate()


def test_sla_driven_policy_produces_actions_for_staleness():
    policy = SLADrivenPolicy()
    actions = decide(
        policy,
        observation(stale_read_fraction=0.2, inconsistency_window_p95=1.0, max_utilization=0.4),
    )
    assert actions, "the SLA-driven policy should react to a staleness violation"


def test_policy_factory():
    assert isinstance(make_policy("static"), StaticPolicy)
    assert isinstance(make_policy("reactive_threshold"), ReactiveThresholdPolicy)
    assert isinstance(make_policy("predictive"), PredictivePolicy)
    assert isinstance(make_policy("sla_driven"), SLADrivenPolicy)
    assert make_policy("overprovisioned").name == "overprovisioned_static"
    with pytest.raises(ValueError):
        make_policy("magic")


# ----------------------------------------------------------------------
# Controller (closed loop against a real cluster)
# ----------------------------------------------------------------------
def build_controlled_system(seed, policy="sla_driven", rate=60.0, shape=None, nodes=3):
    simulator = Simulator(seed=seed)
    cluster = Cluster(
        simulator,
        ClusterConfig(
            initial_nodes=nodes, replication_factor=3, node=NodeConfig(ops_capacity=120.0)
        ),
    )
    metrics = MetricsCollector(simulator, cluster, MetricsConfig(sample_interval=5.0))
    workload = WorkloadGenerator(
        simulator,
        cluster,
        WorkloadSpec(
            record_count=500,
            operation_mix=BALANCED,
            load_shape=shape or ConstantLoad(rate),
        ),
    )
    controller = AutonomousController(
        simulator,
        cluster,
        metrics,
        sla=default_sla(),
        config=ControllerConfig(policy=policy, evaluation_interval=20.0),
        offered_rate_fn=workload.current_rate,
    )
    workload.preload()
    workload.start()
    return simulator, cluster, controller, workload


def test_controller_runs_rounds_and_records_observations():
    simulator, _cluster, controller, _workload = build_controlled_system(seed=1, policy="static")
    simulator.run_until(200.0)
    assert controller.rounds == 10
    assert len(controller.observations) == 10
    assert len(controller.sla_evaluator.evaluations) == 10
    assert controller.summary()["rounds"] == 10.0


@pytest.mark.slow
def test_controller_scales_out_under_overload():
    shape = StepLoad(before_rate=40.0, after_rate=220.0, step_time=100.0)
    simulator, cluster, controller, _workload = build_controlled_system(
        seed=2, policy="reactive_threshold", shape=shape
    )
    simulator.run_until(600.0)
    assert len(cluster.serving_node_ids()) > 3
    assert controller.summary()["scale_out_actions"] >= 1.0


@pytest.mark.slow
def test_controller_static_policy_never_changes_topology():
    simulator, cluster, controller, _workload = build_controlled_system(
        seed=3, policy="static", rate=150.0
    )
    simulator.run_until(300.0)
    assert len(cluster.serving_node_ids()) == 3
    assert controller.executed_actions() == []


def test_controller_stop_and_manual_round():
    simulator, _cluster, controller, _workload = build_controlled_system(seed=4, policy="static")
    simulator.run_until(50.0)
    controller.stop()
    rounds = controller.rounds
    simulator.run_until(150.0)
    assert controller.rounds == rounds
    # A manual round can still be driven (used by unit tests / examples).
    result = controller.run_control_loop()
    assert result is not None
    assert controller.rounds == rounds + 1


@pytest.mark.slow
def test_controller_on_action_callback_and_estimators():
    outcomes = []
    simulator = Simulator(seed=5)
    cluster = Cluster(
        simulator,
        ClusterConfig(initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=120.0)),
    )
    metrics = MetricsCollector(simulator, cluster, MetricsConfig(sample_interval=5.0))
    workload = WorkloadGenerator(
        simulator,
        cluster,
        WorkloadSpec(record_count=300, operation_mix=BALANCED, load_shape=ConstantLoad(200.0)),
    )
    from repro.monitoring import ReadAfterWriteProber, ProbeConfig

    prober = ReadAfterWriteProber(simulator, cluster, ProbeConfig(probe_interval=5.0))
    controller = AutonomousController(
        simulator,
        cluster,
        metrics,
        config=ControllerConfig(policy="sla_driven", evaluation_interval=20.0),
        estimators={"probe": prober},
        offered_rate_fn=workload.current_rate,
        on_action=outcomes.append,
    )
    workload.preload()
    workload.start()
    simulator.run_until(400.0)
    assert controller.rounds > 0
    assert outcomes == controller.action_log
    flips = controller.direction_flips()
    assert flips >= 0
