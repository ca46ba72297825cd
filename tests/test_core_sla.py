"""Unit tests for the SLA model and evaluator."""

from __future__ import annotations

import pytest

from repro.core import (
    SLA,
    AvailabilitySLO,
    LatencySLO,
    SLAEvaluator,
    StalenessSLO,
    SystemObservation,
    default_sla,
)


def observation(**overrides):
    base = dict(
        time=overrides.pop("time", 0.0),
        read_p95_latency=0.02,
        write_p95_latency=0.03,
        failure_fraction=0.0,
        stale_read_fraction=0.0,
        inconsistency_window_p95=0.05,
        throughput_ops=100.0,
        offered_rate=100.0,
        mean_utilization=0.5,
        max_utilization=0.6,
        node_count=3,
        replication_factor=3,
    )
    base.update(overrides)
    return SystemObservation(**base)


def test_latency_slo_satisfaction_and_margin():
    slo = LatencySLO(max_latency=0.05, operation="read")
    ok = slo.evaluate(observation(read_p95_latency=0.02))
    assert ok.satisfied
    assert ok.margin == pytest.approx(0.6)
    bad = slo.evaluate(observation(read_p95_latency=0.10))
    assert not bad.satisfied
    assert bad.margin < 0


def test_latency_slo_validation():
    with pytest.raises(ValueError):
        LatencySLO(max_latency=0.05, operation="delete")


def test_latency_slo_bounds_the_write_p95():
    slo = LatencySLO(max_latency=0.05, operation="write")
    assert slo.evaluate(observation(read_p95_latency=0.2, write_p95_latency=0.04)).satisfied
    assert not slo.evaluate(observation(read_p95_latency=0.0, write_p95_latency=0.06)).satisfied
    assert slo.name == "write_p95_latency"


def test_availability_slo():
    slo = AvailabilitySLO(max_failure_fraction=0.01)
    assert slo.evaluate(observation(failure_fraction=0.005)).satisfied
    assert not slo.evaluate(observation(failure_fraction=0.05)).satisfied


def test_staleness_slo_binding_constraint():
    slo = StalenessSLO(max_window_p95=0.5, max_stale_read_fraction=0.05)
    window_bad = slo.evaluate(observation(inconsistency_window_p95=1.0, stale_read_fraction=0.0))
    assert not window_bad.satisfied
    stale_bad = slo.evaluate(observation(inconsistency_window_p95=0.1, stale_read_fraction=0.2))
    assert not stale_bad.satisfied
    both_ok = slo.evaluate(observation(inconsistency_window_p95=0.1, stale_read_fraction=0.01))
    assert both_ok.satisfied


def test_sla_accessors():
    sla = default_sla()
    assert sla.staleness_objective() is not None
    assert len(sla.objective_names()) == len(sla.objectives)


def test_evaluator_accumulates_violation_time_and_penalty():
    sla = SLA(
        objectives=[LatencySLO(max_latency=0.05, operation="read")],
        penalty_per_violation_second=0.1,
    )
    evaluator = SLAEvaluator(sla)
    evaluator.evaluate(observation(time=0.0, read_p95_latency=0.02))
    evaluator.evaluate(observation(time=10.0, read_p95_latency=0.10))
    evaluator.evaluate(observation(time=20.0, read_p95_latency=0.10))
    evaluator.evaluate(observation(time=30.0, read_p95_latency=0.02))
    assert evaluator.violation_seconds == pytest.approx(20.0)
    assert evaluator.penalty_cost == pytest.approx(2.0)
    assert evaluator.violation_fraction == pytest.approx(0.5)
    summary = evaluator.summary()
    assert summary["violation_seconds"] == pytest.approx(20.0)
    assert summary["violation_seconds.read_p95_latency"] == pytest.approx(20.0)


def test_evaluation_reports_violated_objectives_and_worst_margin():
    sla = default_sla()
    evaluator = SLAEvaluator(sla)
    evaluation = evaluator.evaluate(
        observation(time=0.0, read_p95_latency=0.2, stale_read_fraction=0.2)
    )
    assert not evaluation.satisfied
    violated = {outcome.name for outcome in evaluation.outcomes if not outcome.satisfied}
    assert {"read_p95_latency", "staleness"} <= violated
    assert min(outcome.margin for outcome in evaluation.outcomes) < 0
