"""Unit tests for billing, compensation and the combined cost report."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterListener
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
from repro.runner import Simulation, SimulationConfig
from repro.workload import WorkloadStats


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
    billing.charge_monitoring(400, 600.0)
    billing.charge_monitoring(1000, 1800.0)  # totals: half an hour, not 40 min
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
def read(stale=False, staleness=0.0, success=True, rejected=False):
    result = ReadResult(
        key="k",
        operation=OperationType.READ,
        issued_at=0.0,
        completed_at=0.01,
        success=success,
        stale=stale,
        staleness=staleness,
    )
    result.rejected = rejected
    return result


def write(success=True, rejected=False):
    result = WriteResult(
        key="k", operation=OperationType.WRITE, issued_at=0.0, completed_at=0.01, success=success
    )
    result.rejected = rejected
    return result


def test_compensation_counts_stale_reads_and_conflicts():
    rates = CompensationRates(stale_read=0.01, conflict_event=1.0, conflict_staleness_threshold=0.5)
    stats = WorkloadStats()
    stats.record_read(read(stale=False))
    stats.record_read(read(stale=True, staleness=0.1))
    stats.record_read(read(stale=True, staleness=2.0))
    stats.record_read(read(stale=True, staleness=5.0, success=False))
    stats.record_write(write())
    stats.record_write(write(success=False))
    stats.record_read(read(success=False, rejected=True))
    breakdown = CostAccountant(rates).report(0.0, 0.0, stats).details
    assert breakdown["compensation.stale_reads"] == 2.0
    assert breakdown["compensation.conflict_events"] == 1.0
    # Two failures and one operation admission control shed.
    assert breakdown["compensation.failed_operations"] == 3.0
    assert breakdown["compensation.total_compensation_cost"] == pytest.approx(
        0.02 + 1.0 + 3 * FAILED_OPERATION_PRICE
    )
    assert CompensationModel(rates).breakdown(2, 1, 3) == {
        key.removeprefix("compensation."): value
        for key, value in breakdown.items()
        if key.startswith("compensation.")
    }


class _ProbeFailures(ClusterListener):
    def __init__(self):
        self.count = 0

    def on_operation_completed(self, result):
        self.count += result.operation.is_probe and not result.success


def test_compensation_ignores_probe_traffic():
    # With every node down, probes fail as production operations do; only
    # the production ones are charged, the probes are billed as monitoring.
    simulation = Simulation(SimulationConfig(seed=3, duration=40.0))
    probe_failures = _ProbeFailures()
    simulation.cluster.add_listener(probe_failures)
    simulation.run_until(20.0)
    for node_id in simulation.cluster.node_ids():
        simulation.cluster.crash_node(node_id)
    simulation.run_until(40.0)
    report = simulation.build_report()
    stats = simulation.workload.stats
    assert probe_failures.count > 0 and stats.operations_failed > 0
    assert report.cost.details["compensation.failed_operations"] == stats.operations_failed
    prober = simulation.estimators["probe"]
    assert report.cost.details["billing.probe_operations"] == prober.probe_operations


# ----------------------------------------------------------------------
# Combined report
# ----------------------------------------------------------------------
def test_cost_accountant_combines_all_sources():
    accountant = CostAccountant(CompensationRates(stale_read=0.5))
    accountant.billing.record_node_count(0.0, 2)
    stats = WorkloadStats()
    stats.record_read(read(stale=True, staleness=0.1))
    report = accountant.report(3600.0, 3.0, stats)
    assert report.infrastructure_cost == pytest.approx(2.0 * NODE_HOUR_PRICE)
    assert report.compensation_cost == pytest.approx(0.5)
    assert report.sla_penalty_cost == pytest.approx(3.0)
    assert report.total_cost == pytest.approx(2.0 * NODE_HOUR_PRICE + 0.5 + 3.0)
    flat = report.as_dict()
    assert flat["total_cost"] == pytest.approx(report.total_cost)
    assert "billing.node_hours" in flat
    assert "compensation.stale_reads" in flat
    # Every argument is a total: reporting again charges nothing twice.
    again = accountant.report(3600.0, 3.0, stats)
    assert again.as_dict() == flat


def test_negative_penalty_is_ignored():
    accountant = CostAccountant(CompensationRates())
    report = accountant.report(0.0, -5.0, WorkloadStats())
    assert report.sla_penalty_cost == 0.0
