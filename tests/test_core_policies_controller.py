"""Tests for the policy table and the autonomous controller loop."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, ConsistencyLevel, NodeConfig
from repro.cluster.errors import ConfigurationError
from repro.core import (
    FORECASTERS,
    POLICIES,
    AutonomousController,
    ControllerConfig,
    KnowledgeBase,
    SLAEvaluator,
    SystemObservation,
    default_sla,
)
from repro.core import planner
from repro.core.actions import AddNodeAction, RemoveNodeAction
from repro.core.analyzer import AnalysisResult, Analyzer
from repro.monitoring import MetricsCollector
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
        read_consistency=ConsistencyLevel.ONE,
        write_consistency=ConsistencyLevel.ONE,
    )
    base.update(overrides)
    return SystemObservation(**base)


def decide(name, obs, knowledge=None):
    """The action the policy ``name`` takes on ``obs``, or ``None``."""
    sla = default_sla()
    knowledge = knowledge or KnowledgeBase()
    knowledge.record_observation(obs)
    evaluation = SLAEvaluator(sla).evaluate(obs)
    analysis = Analyzer().analyze(obs, evaluation, knowledge, sla)
    return POLICIES[name](analysis, knowledge, sla)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def test_static_policy_never_acts():
    assert decide("static", observation(mean_utilization=0.99, max_utilization=0.99)) is None


def test_reactive_policy_scales_out_on_high_utilisation():
    action = decide("reactive_threshold", observation(mean_utilization=0.9))
    assert isinstance(action, AddNodeAction)


def test_reactive_policy_scales_in_on_low_utilisation():
    action = decide("reactive_threshold", observation(mean_utilization=0.1, node_count=6))
    assert isinstance(action, RemoveNodeAction)


def test_reactive_policy_respects_bounds(monkeypatch):
    monkeypatch.setattr(planner, "MAX_NODES", 3)
    assert decide("reactive_threshold", observation(mean_utilization=0.9, node_count=3)) is None
    # Cannot drop below RF.
    assert decide("reactive_threshold", observation(mean_utilization=0.1, node_count=3)) is None


def test_reactive_policy_ignores_staleness():
    action = decide(
        "reactive_threshold",
        observation(stale_read_fraction=0.5, inconsistency_window_p95=5.0, mean_utilization=0.5),
    )
    assert action is None


def test_predictive_policy_scales_for_forecast_load():
    knowledge = KnowledgeBase()
    for i in range(20):
        knowledge.record_observation(
            observation(time=i * 30.0, throughput_ops=100.0 + 40.0 * i, mean_utilization=0.6)
        )
    action = decide("predictive", observation(time=630.0, throughput_ops=900.0), knowledge)
    assert isinstance(action, AddNodeAction)


def test_predictive_policy_scales_in_when_forecast_drops():
    knowledge = KnowledgeBase()
    for i in range(20):
        knowledge.record_observation(
            observation(time=i * 30.0, throughput_ops=40.0, node_count=8, mean_utilization=0.1)
        )
    action = decide(
        "predictive", observation(time=630.0, throughput_ops=40.0, node_count=8), knowledge
    )
    assert isinstance(action, RemoveNodeAction)


def test_the_two_sizing_formulas_stay_apart():
    # ``predictive`` sizes from max(throughput, offered rate) with an RF
    # floor; the SLA-driven ``desired_node_count`` from throughput alone.
    obs = observation(throughput_ops=100.0, offered_rate=2000.0, node_count=3)
    analysis = AnalysisResult(time=obs.time, observation=obs, margins={}, forecast_load=0.0)
    knowledge = KnowledgeBase()
    assert isinstance(POLICIES["predictive"](analysis, knowledge, default_sla()), AddNodeAction)
    assert planner.desired_node_count(analysis, knowledge) == planner.MIN_NODES
    idle = observation(throughput_ops=1.0, offered_rate=1.0, node_count=3, replication_factor=3)
    analysis = AnalysisResult(time=idle.time, observation=idle, margins={}, forecast_load=0.0)
    assert POLICIES["predictive"](analysis, knowledge, default_sla()) is None


def test_sizing_reads_the_forecast_the_analyzer_computed():
    # The knowledge base has seen no load, so its forecaster predicts none:
    # only ``analysis.forecast_load`` can make either sizing formula grow.
    obs = observation(throughput_ops=100.0, offered_rate=100.0, node_count=3)
    knowledge = KnowledgeBase()
    calm = AnalysisResult(time=obs.time, observation=obs, margins={}, forecast_load=0.0)
    peak = AnalysisResult(time=obs.time, observation=obs, margins={}, forecast_load=5000.0)
    assert POLICIES["predictive"](calm, knowledge, default_sla()) is None
    assert isinstance(POLICIES["predictive"](peak, knowledge, default_sla()), AddNodeAction)
    assert planner.desired_node_count(calm, knowledge) < obs.node_count
    assert planner.desired_node_count(peak, knowledge) > obs.node_count


def test_sla_driven_policy_acts_on_staleness():
    action = decide(
        "sla_driven",
        observation(stale_read_fraction=0.2, inconsistency_window_p95=1.0, max_utilization=0.4),
    )
    assert action is not None, "the SLA-driven policy should react to a staleness violation"


def test_policy_table_names_every_policy():
    assert set(POLICIES) == {"static", "reactive_threshold", "predictive", "sla_driven"}


@pytest.mark.parametrize(
    "field, value", [("policy", "magic"), ("policy", "overprovisioned"), ("forecaster", "oracle")]
)
def test_controller_config_refuses_an_unknown_name(field, value):
    table = POLICIES if field == "policy" else FORECASTERS
    with pytest.raises(ConfigurationError) as raised:
        ControllerConfig(**{field: value})
    message = str(raised.value)
    assert f"ControllerConfig.{field}" in message
    assert all(name in message for name in table)


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
    workload = WorkloadGenerator(
        simulator,
        cluster,
        WorkloadSpec(
            record_count=500,
            operation_mix=BALANCED,
            load_shape=shape or ConstantLoad(rate),
        ),
    )
    metrics = MetricsCollector(simulator, cluster, workload.stats)
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


def test_controller_runs_rounds_and_counts_evaluations():
    simulator, _cluster, controller, _workload = build_controlled_system(seed=1, policy="static")
    simulator.run_until(200.0)
    assert controller.rounds == 10
    assert controller.sla_evaluator.evaluated == 10
    assert controller.summary()["rounds"] == 10.0
    assert controller.summary()["evaluations"] == 10.0


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
def test_controller_runs_rounds_from_its_estimators():
    simulator = Simulator(seed=5)
    cluster = Cluster(
        simulator,
        ClusterConfig(initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=120.0)),
    )
    workload = WorkloadGenerator(
        simulator,
        cluster,
        WorkloadSpec(record_count=300, operation_mix=BALANCED, load_shape=ConstantLoad(200.0)),
    )
    metrics = MetricsCollector(simulator, cluster, workload.stats)
    from repro.monitoring import ReadAfterWriteProber, ProbeConfig

    prober = ReadAfterWriteProber(simulator, cluster, ProbeConfig(probe_interval=5.0))
    controller = AutonomousController(
        simulator,
        cluster,
        metrics,
        config=ControllerConfig(policy="sla_driven", evaluation_interval=20.0),
        estimators={"probe": prober},
        offered_rate_fn=workload.current_rate,
    )
    workload.preload()
    workload.start()
    simulator.run_until(400.0)
    assert controller.rounds > 0
    flips = controller.direction_flips()
    assert flips >= 0
