"""Unit tests for forecasting, the capacity model and the knowledge base."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    FORECASTERS,
    AutoRegressiveForecaster,
    EwmaForecaster,
    HoltWintersForecaster,
    KnowledgeBase,
    NaiveForecaster,
    SystemObservation,
)
import repro.core.knowledge as knowledge_module
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
    forecaster = feed(EwmaForecaster(), [10.0] * 20)
    assert forecaster.forecast(60.0) == pytest.approx(10.0)


def test_ewma_smooths_noise():
    forecaster = feed(EwmaForecaster(), [10.0, 30.0, 10.0, 30.0, 10.0, 30.0])
    assert 10.0 < forecaster.forecast(10.0) < 30.0


def test_holt_winters_extrapolates_trend():
    values = [10.0 + 2.0 * i for i in range(30)]
    forecaster = feed(HoltWintersForecaster(), values, interval=10.0)
    # Signal grows by 2 per 10-second step; 60 s ahead ~ +12.
    forecast = forecaster.forecast(60.0)
    assert forecast > values[-1] + 5.0
    assert forecast < values[-1] + 25.0


def test_holt_winters_never_negative():
    values = [100.0 - 10.0 * i for i in range(12)]
    forecaster = feed(HoltWintersForecaster(), values)
    assert forecaster.forecast(600.0) >= 0.0


def test_autoregressive_learns_linear_trend():
    values = [5.0 + 3.0 * i for i in range(60)]
    forecaster = feed(AutoRegressiveForecaster(), values)
    forecast = forecaster.forecast(10.0)
    assert forecast > values[-1]


def test_autoregressive_falls_back_to_the_last_value():
    forecaster = AutoRegressiveForecaster()
    forecaster.observe(0.0, 5.0)
    assert forecaster.forecast(10.0) == 5.0  # not enough data -> last value


def test_forecast_peak_covers_interval():
    values = [10.0 + 2.0 * i for i in range(30)]
    forecaster = feed(HoltWintersForecaster(), values)
    assert forecaster.forecast_peak(120.0) >= forecaster.forecast(20.0)


def test_observation_time_ordering_enforced():
    forecaster = EwmaForecaster()
    forecaster.observe(10.0, 1.0)
    with pytest.raises(ValueError):
        forecaster.observe(5.0, 1.0)


def test_forecaster_table():
    assert FORECASTERS == {
        "naive": NaiveForecaster,
        "ewma": EwmaForecaster,
        "holt_winters": HoltWintersForecaster,
        "autoregressive": AutoRegressiveForecaster,
    }


# ----------------------------------------------------------------------
# Capacity model
# ----------------------------------------------------------------------
def test_capacity_model_learns_from_observations(monkeypatch):
    monkeypatch.setattr(knowledge_module, "PRIOR_OPS_PER_NODE", 100.0)
    monkeypatch.setattr(knowledge_module, "CAPACITY_LEARNING_RATE", 0.5)
    model = CapacityModel()
    for _ in range(20):
        model.observe(throughput=600.0, node_count=3, mean_utilization=0.5)
    # Implied capacity = 600 / (3 * 0.5) = 400 ops per node.
    assert model.ops_per_node == pytest.approx(400.0, rel=0.05)


def test_capacity_model_ignores_idle_observations(monkeypatch):
    monkeypatch.setattr(knowledge_module, "PRIOR_OPS_PER_NODE", 100.0)
    model = CapacityModel()
    model.observe(throughput=10.0, node_count=3, mean_utilization=0.05)
    assert model.ops_per_node == 100.0


def test_capacity_nodes_needed(monkeypatch):
    monkeypatch.setattr(knowledge_module, "PRIOR_OPS_PER_NODE", 100.0)
    model = CapacityModel()
    assert model.nodes_needed(0.0, 0.6) == 1
    assert model.nodes_needed(100.0, 0.5) == 2
    assert model.nodes_needed(350.0, 0.7) == 5


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
