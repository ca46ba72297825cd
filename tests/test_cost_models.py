"""Unit tests for billing, compensation and the combined cost report."""

from __future__ import annotations

import pytest

from repro.cluster.types import OperationType, ReadResult, WriteResult
from repro.cost import BillingModel, CompensationModel, CompensationRates, CostAccountant
from repro.cost.billing import (
    ANALYSIS_CPU_HOUR_PRICE,
    NODE_HOUR_PRICE,
    PROBE_OPERATION_PRICE,
    RECONFIGURATION_ACTION_PRICE,
    SCALING_ACTION_PRICE,
)
from repro.cost.compensation import FAILED_OPERATION_PRICE


# ----------------------------------------------------------------------
# Billing
# ----------------------------------------------------------------------
def test_node_hours_integrate_step_function():
    billing = BillingModel()
    billing.record_node_count(0.0, 3)
    billing.record_node_count(1800.0, 5)
    billing.close(3600.0)
    # 3 nodes for 30 min + 5 nodes for 30 min = 4 node-hours.
    assert billing.node_hours == pytest.approx(4.0)
    assert billing.infrastructure_cost() == pytest.approx(4.0 * NODE_HOUR_PRICE)


def test_close_extends_last_sample_only_forward():
    billing = BillingModel()
    billing.record_node_count(0.0, 2)
    billing.close(100.0)
    assert billing.node_seconds == pytest.approx(200.0)


def test_scaling_and_reconfiguration_charges():
    billing = BillingModel()
    billing.record_scaling_action()
    billing.record_scaling_action()
    billing.record_reconfiguration_action()
    assert billing.churn_cost() == pytest.approx(
        2 * SCALING_ACTION_PRICE + RECONFIGURATION_ACTION_PRICE
    )


def test_monitoring_charges():
    billing = BillingModel()
    billing.record_probe_operations(1000)
    billing.record_analysis_cpu(1800.0)  # half an hour
    assert billing.monitoring_cost() == pytest.approx(
        1000 * PROBE_OPERATION_PRICE + 0.5 * ANALYSIS_CPU_HOUR_PRICE
    )


def test_billing_breakdown_keys():
    billing = BillingModel()
    billing.record_node_count(0.0, 1)
    billing.close(3600.0)
    breakdown = billing.breakdown()
    for key in ("node_hours", "infrastructure_cost", "churn_cost", "monitoring_cost"):
        assert key in breakdown
    assert billing.total_cost() == pytest.approx(
        breakdown["infrastructure_cost"] + breakdown["churn_cost"] + breakdown["monitoring_cost"]
    )


# ----------------------------------------------------------------------
# Compensation
# ----------------------------------------------------------------------
def read(stale=False, staleness=0.0, success=True, probe=False):
    return ReadResult(
        key="k",
        operation=OperationType.PROBE_READ if probe else OperationType.READ,
        issued_at=0.0,
        completed_at=0.01,
        success=success,
        stale=stale,
        staleness=staleness,
    )


def write(success=True):
    return WriteResult(
        key="k", operation=OperationType.WRITE, issued_at=0.0, completed_at=0.01, success=success
    )


def test_compensation_counts_stale_reads_and_conflicts():
    rates = CompensationRates(stale_read=0.01, conflict_event=1.0, conflict_staleness_threshold=0.5)
    model = CompensationModel(rates)
    model.on_operation_completed(read(stale=False))
    model.on_operation_completed(read(stale=True, staleness=0.1))
    model.on_operation_completed(read(stale=True, staleness=2.0))
    model.on_operation_completed(read(success=False))
    model.on_operation_completed(write())
    model.on_operation_completed(write(success=False))
    assert model.stale_reads == 2
    assert model.conflict_events == 1
    assert model.failed_operations == 2
    assert model.total_cost() == pytest.approx(0.02 + 1.0 + 2 * FAILED_OPERATION_PRICE)
    breakdown = model.breakdown()
    assert breakdown["conflict_events"] == 1.0


def test_compensation_ignores_probe_traffic():
    model = CompensationModel()
    model.on_operation_completed(read(stale=True, staleness=10.0, probe=True))
    assert model.stale_reads == 0
    assert model.total_cost() == 0.0


# ----------------------------------------------------------------------
# Combined report
# ----------------------------------------------------------------------
def test_cost_accountant_combines_all_sources():
    accountant = CostAccountant(compensation=CompensationModel(CompensationRates(stale_read=0.5)))
    accountant.billing.record_node_count(0.0, 2)
    accountant.compensation.on_operation_completed(read(stale=True, staleness=0.1))
    accountant.add_sla_penalty(3.0)
    report = accountant.report(end_time=3600.0)
    assert report.infrastructure_cost == pytest.approx(2.0 * NODE_HOUR_PRICE)
    assert report.compensation_cost == pytest.approx(0.5)
    assert report.sla_penalty_cost == pytest.approx(3.0)
    assert report.total_cost == pytest.approx(2.0 * NODE_HOUR_PRICE + 0.5 + 3.0)
    flat = report.as_dict()
    assert flat["total_cost"] == pytest.approx(report.total_cost)
    assert "billing.node_hours" in flat
    assert "compensation.stale_reads" in flat


def test_negative_penalty_is_ignored():
    accountant = CostAccountant()
    accountant.add_sla_penalty(-5.0)
    assert accountant.report().sla_penalty_cost == 0.0
