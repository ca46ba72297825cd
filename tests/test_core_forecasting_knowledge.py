"""Unit tests for forecasting, the capacity model and the knowledge base."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    AutoRegressiveForecaster,
    EwmaForecaster,
    HoltWintersForecaster,
    KnowledgeBase,
    NaiveForecaster,
    SystemObservation,
    make_forecaster,
)
from repro.core.actions import ActionKind, ActionOutcome
from repro.core.knowledge import CapacityModel


def feed(forecaster, values, interval=10.0):
    for i, value in enumerate(values):
        forecaster.observe(i * interval, value)
    return forecaster


# ----------------------------------------------------------------------
# Forecasters
# ----------------------------------------------------------------------
def test_naive_forecaster_repeats_last_value():
    forecaster = feed(NaiveForecaster(), [1.0, 5.0, 3.0])
    assert forecaster.forecast(100.0) == 3.0
    assert forecaster.observations == 3


def test_ewma_converges_to_constant_signal():
    forecaster = feed(EwmaForecaster(alpha=0.5), [10.0] * 20)
    assert forecaster.forecast(60.0) == pytest.approx(10.0)


def test_ewma_smooths_noise():
    forecaster = feed(EwmaForecaster(alpha=0.2), [10.0, 30.0, 10.0, 30.0, 10.0, 30.0])
    assert 10.0 < forecaster.forecast(10.0) < 30.0
    with pytest.raises(ValueError):
        EwmaForecaster(alpha=0.0)


def test_holt_winters_extrapolates_trend():
    values = [10.0 + 2.0 * i for i in range(30)]
    forecaster = feed(HoltWintersForecaster(alpha=0.5, beta=0.3), values, interval=10.0)
    # Signal grows by 2 per 10-second step; 60 s ahead ~ +12.
    forecast = forecaster.forecast(60.0)
    assert forecast > values[-1] + 5.0
    assert forecast < values[-1] + 25.0


def test_holt_winters_never_negative():
    values = [100.0 - 10.0 * i for i in range(12)]
    forecaster = feed(HoltWintersForecaster(alpha=0.5, beta=0.5), values)
    assert forecaster.forecast(600.0) >= 0.0


def test_holt_winters_seasonal_component():
    season = [10.0, 20.0, 40.0, 20.0]
    values = season * 8
    forecaster = feed(HoltWintersForecaster(alpha=0.3, beta=0.0, gamma=0.5, season_length=4), values)
    # One full season ahead should look similar to the same phase.
    assert forecaster.forecast(40.0) == pytest.approx(values[-4], rel=0.8)
    with pytest.raises(ValueError):
        HoltWintersForecaster(alpha=1.5)


def test_autoregressive_learns_linear_trend():
    values = [5.0 + 3.0 * i for i in range(60)]
    forecaster = feed(AutoRegressiveForecaster(order=3, window=60, refit_every=5), values)
    forecast = forecaster.forecast(10.0)
    assert forecast > values[-1]


def test_autoregressive_validation_and_fallback():
    with pytest.raises(ValueError):
        AutoRegressiveForecaster(order=0)
    with pytest.raises(ValueError):
        AutoRegressiveForecaster(order=5, window=5)
    forecaster = AutoRegressiveForecaster(order=2, window=20)
    forecaster.observe(0.0, 5.0)
    assert forecaster.forecast(10.0) == 5.0  # not enough data -> last value


def test_forecast_peak_covers_interval():
    values = [10.0 + 2.0 * i for i in range(30)]
    forecaster = feed(HoltWintersForecaster(alpha=0.5, beta=0.3), values)
    assert forecaster.forecast_peak(120.0) >= forecaster.forecast(20.0)


def test_observation_time_ordering_enforced():
    forecaster = EwmaForecaster()
    forecaster.observe(10.0, 1.0)
    with pytest.raises(ValueError):
        forecaster.observe(5.0, 1.0)


def test_make_forecaster_factory():
    assert isinstance(make_forecaster("ewma"), EwmaForecaster)
    assert isinstance(make_forecaster("holt_winters"), HoltWintersForecaster)
    assert isinstance(make_forecaster("autoregressive"), AutoRegressiveForecaster)
    assert isinstance(make_forecaster("naive"), NaiveForecaster)
    with pytest.raises(ValueError):
        make_forecaster("oracle")


# ----------------------------------------------------------------------
# Capacity model
# ----------------------------------------------------------------------
def test_capacity_model_learns_from_observations():
    model = CapacityModel(prior_ops_per_node=100.0, learning_rate=0.5)
    for _ in range(20):
        model.observe(throughput=600.0, node_count=3, mean_utilization=0.5)
    # Implied capacity = 600 / (3 * 0.5) = 400 ops per node.
    assert model.ops_per_node == pytest.approx(400.0, rel=0.05)


def test_capacity_model_ignores_idle_observations():
    model = CapacityModel(prior_ops_per_node=100.0)
    model.observe(throughput=10.0, node_count=3, mean_utilization=0.05)
    assert model.ops_per_node == 100.0


def test_capacity_nodes_needed():
    model = CapacityModel(prior_ops_per_node=100.0)
    assert model.nodes_needed(0.0, 0.6) == 1
    assert model.nodes_needed(100.0, 0.5) == 2
    assert model.nodes_needed(350.0, 0.7) == 5
    with pytest.raises(ValueError):
        CapacityModel(prior_ops_per_node=0.0)


# ----------------------------------------------------------------------
# Knowledge base
# ----------------------------------------------------------------------
def make_observation(time, throughput=100.0, window_mean=0.05, utilization=0.5, nodes=3):
    return SystemObservation(
        time=time,
        throughput_ops=throughput,
        offered_rate=throughput,
        inconsistency_window_mean=window_mean,
        inconsistency_window_p95=window_mean * 3,
        mean_utilization=utilization,
        max_utilization=utilization,
        node_count=nodes,
        replication_factor=3,
    )


def test_knowledge_records_observations_and_updates_lag():
    knowledge = KnowledgeBase()
    for i in range(10):
        knowledge.record_observation(make_observation(i * 30.0, window_mean=0.2))
    assert knowledge.latest().time == pytest.approx(270.0)
    assert len(knowledge.history()) == 10
    assert len(knowledge.history(3)) == 3
    # The staleness model is refitted with a lag estimate near the windows'
    # mean: its median window is that lag times ln 2.
    assert knowledge.staleness_model.expected_window_p(0.5) == pytest.approx(
        0.2 * math.log(2.0), rel=0.3
    )


def test_knowledge_load_forecast_follows_growth():
    knowledge = KnowledgeBase()
    for i in range(20):
        knowledge.record_observation(make_observation(i * 30.0, throughput=100.0 + 10.0 * i))
    assert knowledge.load_forecast_peak(300.0) > 250.0


def test_knowledge_action_history():
    knowledge = KnowledgeBase()
    outcome = ActionOutcome(
        action="add_node", kind=ActionKind.SCALE_OUT, applied=True, time=100.0, detail={}
    )
    knowledge.record_action(outcome)
    assert knowledge.actions() == [outcome]
