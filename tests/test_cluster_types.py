"""Unit tests for consistency levels and operation result types."""

from __future__ import annotations

import pytest

from repro.cluster import ConsistencyLevel, NodeState, OperationType, ReadResult, WriteResult


def test_required_acks_per_level():
    assert ConsistencyLevel.ONE.required_acks(3) == 1
    assert ConsistencyLevel.TWO.required_acks(3) == 2
    assert ConsistencyLevel.THREE.required_acks(3) == 3
    assert ConsistencyLevel.QUORUM.required_acks(3) == 2
    assert ConsistencyLevel.QUORUM.required_acks(5) == 3
    assert ConsistencyLevel.QUORUM.required_acks(1) == 1
    assert ConsistencyLevel.ALL.required_acks(4) == 4
    assert ConsistencyLevel.ANY.required_acks(3) == 1


def test_required_acks_clamped_to_rf():
    assert ConsistencyLevel.TWO.required_acks(1) == 1
    assert ConsistencyLevel.THREE.required_acks(2) == 2


def test_required_acks_rejects_bad_rf():
    with pytest.raises(ValueError):
        ConsistencyLevel.ONE.required_acks(0)


def test_strictness_is_monotone_on_ladder():
    ladder = ConsistencyLevel.ladder()
    strictness = [level.strictness for level in ladder]
    assert strictness == sorted(strictness)
    assert ladder[0] is ConsistencyLevel.ONE
    assert ladder[-1] is ConsistencyLevel.ALL


def test_strong_consistency_condition():
    # R + W > N.
    assert ConsistencyLevel.is_strongly_consistent(
        ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM, 3
    )
    assert ConsistencyLevel.is_strongly_consistent(ConsistencyLevel.ALL, ConsistencyLevel.ONE, 3)
    assert not ConsistencyLevel.is_strongly_consistent(
        ConsistencyLevel.ONE, ConsistencyLevel.ONE, 3
    )
    assert not ConsistencyLevel.is_strongly_consistent(
        ConsistencyLevel.ONE, ConsistencyLevel.QUORUM, 3
    )


def test_node_state_serving_rules():
    assert NodeState.NORMAL.serves_requests
    assert NodeState.LEAVING.serves_requests
    assert not NodeState.JOINING.serves_requests
    assert not NodeState.DOWN.serves_requests
    assert not NodeState.REMOVED.serves_requests


def test_operation_type_classification():
    assert OperationType.PROBE_READ.is_probe
    assert OperationType.PROBE_WRITE.is_probe
    assert not OperationType.READ.is_probe


def test_latency_is_non_negative():
    result = WriteResult(
        key="k",
        operation=OperationType.WRITE,
        issued_at=10.0,
        completed_at=10.5,
        success=True,
    )
    assert result.latency == pytest.approx(0.5)
    weird = ReadResult(
        key="k",
        operation=OperationType.READ,
        issued_at=10.0,
        completed_at=9.0,
        success=False,
    )
    assert weird.latency == 0.0


def test_read_result_defaults():
    result = ReadResult(
        key="k", operation=OperationType.READ, issued_at=0.0, completed_at=0.1, success=True
    )
    assert result.value is None
    assert not result.stale
    assert result.staleness == 0.0
