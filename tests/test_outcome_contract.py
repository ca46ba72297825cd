"""The outcome of an operation is written once and read as data.

``OperationResult.latency`` is an attribute written where ``completed_at`` is
(construction, ``RequestCoordinator._finish``), and ``is_read`` a class-level
flag; every ``on_operation_completed`` listener reads both instead of
recomputing the latency and asking ``isinstance``.  This test holds the
writers to that contract on the scenarios of ``test_request_path_digests.py``
— all five stacks, healthy and faulted — so that successes, timeouts,
unavailable errors, admission rejections and results that never reached a
coordinator are all audited.
"""

from __future__ import annotations

from collections import Counter

import pytest
from test_request_path_digests import DURATION, STACKS, _config, crash_and_partition_campaign

from repro.cluster import ClusterListener, OperationType, ReadResult, WriteResult
from repro.runner import Simulation


class OutcomeAuditor(ClusterListener):
    """Checks every result it is handed, and keeps it."""

    def __init__(self) -> None:
        self.results = []

    def on_operation_completed(self, result) -> None:
        assert isinstance(result, (ReadResult, WriteResult))
        assert result.latency == max(0.0, result.completed_at - result.issued_at)
        assert result.is_read is isinstance(result, ReadResult)
        assert result.is_read is (result.operation in (OperationType.READ, OperationType.PROBE_READ))
        self.results.append(result)


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
    simulation.run()

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
    if health == "faulted":
        assert outcomes["timeout"] > 0
        if stack == "consistency_override":
            assert outcomes["unavailable"] > 0
    else:
        assert set(outcomes) <= {"success", "rejected"}


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
