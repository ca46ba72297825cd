"""The outcome of an operation is written once and read as data.

``OperationResult.latency`` is an attribute written where ``completed_at`` is
(construction, ``RequestCoordinator._finish``), and ``is_read`` a class-level
flag; every ``on_operation_completed`` listener reads both instead of
recomputing the latency and asking ``isinstance``.  This test holds the
writers to that contract on the scenarios of ``test_request_path_digests.py``
— every stack, healthy and faulted — so that successes, timeouts,
unavailable errors, admission rejections and results that never reached a
coordinator are all audited.

The auditor is also the reference for what the report counts.  The report
reads staleness, compensation and the monitoring share from the workload's
tally and the prober's count; the auditor recounts them from the results
themselves, filtering each one on ``is_probe`` / ``success`` / ``stale``.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import pytest
from test_request_path_digests import DURATION, STACKS, _config, crash_and_partition_campaign
from test_stored_once import _stale_reads_config

from repro.cluster import ClusterListener, OperationType, ReadResult, WriteResult
from repro.cost import CompensationRates
from repro.cost.compensation import FAILED_OPERATION_PRICE
from repro.runner import Simulation
from repro.simulation.timeseries import TimeSeries


class OutcomeAuditor(ClusterListener):
    """Checks every result it is handed, keeps it, and counts it."""

    def __init__(self, rates: Optional[CompensationRates] = None) -> None:
        self.rates = rates or CompensationRates()
        self.results = []
        self.production_operations = 0
        self.probe_operations = 0
        self.production_reads = 0
        self.stale_ages = TimeSeries("reference_staleness")
        self.conflict_events = 0
        self.failed_operations = 0

    def on_operation_completed(self, result) -> None:
        assert isinstance(result, (ReadResult, WriteResult))
        assert result.latency == max(0.0, result.completed_at - result.issued_at)
        assert result.is_read is isinstance(result, ReadResult)
        assert result.is_read is (result.operation in (OperationType.READ, OperationType.PROBE_READ))
        self.results.append(result)
        if result.operation.is_probe:
            self.probe_operations += 1
            return
        self.production_operations += 1
        if not result.success:
            # Timed out, unavailable or shed by admission control alike.
            self.failed_operations += 1
        elif result.is_read:
            self.production_reads += 1
            if result.stale:
                self.stale_ages.record(result.completed_at, result.staleness)
                if result.staleness >= self.rates.conflict_staleness_threshold:
                    self.conflict_events += 1

    def staleness(self):
        """The report's ``staleness`` section, recounted."""
        stale = len(self.stale_ages)
        ages = self.stale_ages.summary()
        return {
            "reads": self.production_reads,
            "stale_reads": stale,
            "stale_fraction": stale / self.production_reads if self.production_reads else 0.0,
            "mean_staleness": ages.mean,
            "p95_staleness": ages.p95,
            "max_staleness": ages.maximum,
        }

    def compensation(self):
        """The report's ``compensation.*`` cost lines, recounted."""
        stale_read_cost = len(self.stale_ages) * self.rates.stale_read
        conflict_cost = self.conflict_events * self.rates.conflict_event
        availability_cost = self.failed_operations * FAILED_OPERATION_PRICE
        return {
            "compensation.stale_reads": float(len(self.stale_ages)),
            "compensation.conflict_events": float(self.conflict_events),
            "compensation.failed_operations": float(self.failed_operations),
            "compensation.stale_read_cost": stale_read_cost,
            "compensation.conflict_cost": conflict_cost,
            "compensation.availability_cost": availability_cost,
            "compensation.total_compensation_cost": (
                stale_read_cost + conflict_cost + availability_cost
            ),
        }

    def assert_report_counts_what_it_saw(self, report) -> None:
        assert report.staleness == self.staleness()
        cost = report.cost.as_dict()
        assert {key: cost[key] for key in self.compensation()} == self.compensation()
        assert cost["billing.probe_operations"] == self.probe_operations
        for overhead in report.monitoring_overhead.values():
            assert overhead["production_operations"] == self.production_operations


def _outcome(result) -> str:
    if result.success:
        return "success"
    if result.rejected:
        return "rejected"
    return result.error.split(":")[0]


@pytest.mark.parametrize("health", ("healthy", "faulted"))
@pytest.mark.parametrize("stack", STACKS)
def test_every_outcome_is_written_once_and_handed_over_once(stack, health):
    config = _config(stack)
    if health == "faulted":
        config.faults = crash_and_partition_campaign(DURATION, 5)
    simulation = Simulation(config)
    auditor = OutcomeAuditor()
    simulation.cluster.add_listener(auditor)
    report = simulation.run()
    auditor.assert_report_counts_what_it_saw(report)

    # Handed over exactly once: no result twice, and one for every operation
    # the workload saw complete, fail or be shed.
    results = auditor.results
    assert len({id(result) for result in results}) == len(results)
    production = [result for result in results if not result.operation.is_probe]
    stats = simulation.workload.stats
    assert sum(result.is_read for result in production) == (
        stats.reads_completed + stats.reads_failed + stats.reads_rejected
    )
    assert sum(not result.is_read for result in production) == (
        stats.writes_completed + stats.writes_failed + stats.writes_rejected
    )

    outcomes = Counter(_outcome(result) for result in results)
    assert outcomes["success"] > 500
    assert any(result.latency > 0.0 for result in results)
    if stack == "admission":
        assert outcomes["rejected"] > 0
        assert auditor.failed_operations >= outcomes["rejected"]
    if health == "faulted":
        assert outcomes["timeout"] > 0
        if stack == "consistency_override":
            assert outcomes["unavailable"] > 0
    else:
        assert set(outcomes) <= {"success", "rejected"}


def test_the_report_counts_stale_reads_and_conflicts_as_clients_saw_them():
    # None of the cells above returns a stale read; E2's scenario does, and a
    # threshold inside the range of their ages splits them into conflicts
    # and ordinary stale reads.
    config = _stale_reads_config()
    config.compensation_rates = CompensationRates(conflict_staleness_threshold=10.0)
    simulation = Simulation(config)
    auditor = OutcomeAuditor(config.compensation_rates)
    simulation.cluster.add_listener(auditor)
    report = simulation.run()
    auditor.assert_report_counts_what_it_saw(report)
    assert 0 < auditor.conflict_events < len(auditor.stale_ages)
    assert auditor.probe_operations > 0


def test_a_result_that_never_reached_a_coordinator_is_handed_over_too(
    small_cluster, simulator
):
    auditor = OutcomeAuditor()
    small_cluster.add_listener(auditor)
    for node_id in small_cluster.node_ids():
        small_cluster.crash_node(node_id)
    simulator.run_until(3.0)
    delivered = []
    small_cluster.read("k", on_complete=delivered.append)
    small_cluster.write("k", b"v", on_complete=delivered.append)
    assert [result.error for result in delivered] == ["no serving nodes"] * 2
    assert auditor.results == delivered
    assert [result.latency for result in delivered] == [0.0, 0.0]
    assert [result.is_read for result in delivered] == [True, False]


def test_a_result_built_by_hand_reports_its_latency():
    read = ReadResult(
        key="k", operation=OperationType.READ, issued_at=1.0, completed_at=1.25, success=True
    )
    write = WriteResult(
        key="k", operation=OperationType.WRITE, issued_at=2.0, completed_at=1.0, success=False
    )
    assert (read.latency, read.is_read) == (0.25, True)
    assert (write.latency, write.is_read) == (0.0, False)
    assert "is_read" not in vars(read) and "is_read" not in vars(write)
