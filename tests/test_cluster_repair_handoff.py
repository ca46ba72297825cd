"""Unit tests for hinted handoff, read repair and anti-entropy."""

from __future__ import annotations

import pytest

import repro.cluster.anti_entropy as anti_entropy
import repro.cluster.hinted_handoff as hinted_handoff
from repro.cluster import (
    AntiEntropyService,
    HintedHandoffManager,
    ReadRepairer,
    ReplicaReadResponse,
    VersionStamp,
    VersionedValue,
)
from repro.simulation import Simulator


def version(ts, seq=0):
    return VersionedValue(stamp=VersionStamp(ts, seq), value=b"x", write_id=1, size=8)


# ----------------------------------------------------------------------
# Hinted handoff
# ----------------------------------------------------------------------
def test_hints_are_replayed_when_target_reachable(monkeypatch):
    monkeypatch.setattr(hinted_handoff, "REPLAY_INTERVAL", 1.0)
    simulator = Simulator(seed=0)
    delivered = []
    reachable = {"n1": False}
    manager = HintedHandoffManager(
        simulator,
        deliver=lambda node, key, v: delivered.append((node, key)) or True,
        is_reachable=lambda node: reachable[node],
    )
    manager.store("n1", "k", version(1.0))
    simulator.run_until(5.0)
    assert delivered == []
    reachable["n1"] = True
    simulator.run_until(10.0)
    assert delivered == [("n1", "k")]
    assert manager.pending == 0
    assert manager.hints_replayed == 1


def test_hints_expire_after_ttl(monkeypatch):
    monkeypatch.setattr(hinted_handoff, "REPLAY_INTERVAL", 1.0)
    monkeypatch.setattr(hinted_handoff, "HINT_TTL", 3.0)
    simulator = Simulator(seed=0)
    manager = HintedHandoffManager(
        simulator,
        deliver=lambda node, key, v: True,
        is_reachable=lambda node: False,
    )
    manager.store("n1", "k", version(1.0))
    simulator.run_until(10.0)
    assert manager.hints_expired == 1
    assert manager.pending == 0


def test_hint_capacity_is_bounded(monkeypatch):
    monkeypatch.setattr(hinted_handoff, "MAX_HINTS", 5)
    simulator = Simulator(seed=0)
    manager = HintedHandoffManager(
        simulator,
        deliver=lambda *a: True,
        is_reachable=lambda n: False,
    )
    for i in range(10):
        manager.store("n1", f"k{i}", version(float(i), seq=i))
    assert manager.pending == 5
    assert manager.hints_dropped == 5


def test_discard_for_node_removes_only_that_target():
    simulator = Simulator(seed=0)
    manager = HintedHandoffManager(
        simulator,
        deliver=lambda *a: True,
        is_reachable=lambda n: False,
    )
    manager.store("n1", "a", version(1.0))
    manager.store("n2", "b", version(2.0))
    dropped = manager.discard_for_node("n1")
    assert dropped == 1
    assert manager.pending == 1


def test_replay_batch_limits_per_round_delivery(monkeypatch):
    monkeypatch.setattr(hinted_handoff, "REPLAY_INTERVAL", 1.0)
    monkeypatch.setattr(hinted_handoff, "REPLAY_BATCH", 2)
    simulator = Simulator(seed=0)
    delivered = []
    manager = HintedHandoffManager(
        simulator,
        deliver=lambda node, key, v: delivered.append(key) or True,
        is_reachable=lambda node: True,
    )
    for i in range(5):
        manager.store("n1", f"k{i}", version(float(i), seq=i))
    simulator.run_until(1.5)
    assert len(delivered) == 2
    simulator.run_until(10.0)
    assert len(delivered) == 5


# ----------------------------------------------------------------------
# Read repair
# ----------------------------------------------------------------------
def make_responses(versions):
    return [
        ReplicaReadResponse(node_id=f"n{i}", version=v)
        for i, v in enumerate(versions)
    ]


def test_read_repair_detects_and_repairs_divergence():
    simulator = Simulator(seed=0)
    repairs = []
    repairer = ReadRepairer(
        simulator, deliver=lambda node, key, v: repairs.append((node, v)) or True
    )
    newer = version(5.0, seq=2)
    older = version(1.0, seq=1)
    mismatch = repairer.inspect("k", make_responses([older, newer, None]))
    assert mismatch
    assert repairer.mismatches_detected == 1
    # Both the stale replica and the missing replica get the newest version.
    assert {node for node, _ in repairs} == {"n0", "n2"}
    assert all(v is newer for _, v in repairs)


def test_read_repair_no_mismatch_when_replicas_agree():
    simulator = Simulator(seed=0)
    repairer = ReadRepairer(simulator, deliver=lambda *a: True)
    same = version(1.0)
    assert not repairer.inspect("k", make_responses([same, same]))
    assert repairer.mismatches_detected == 0


def test_read_repair_single_response_is_ignored():
    simulator = Simulator(seed=0)
    repairer = ReadRepairer(simulator, deliver=lambda *a: True)
    assert not repairer.inspect("k", make_responses([version(1.0)]))


# ----------------------------------------------------------------------
# Anti-entropy
# ----------------------------------------------------------------------
def test_anti_entropy_repairs_divergent_replicas():
    simulator = Simulator(seed=0)
    newest = version(9.0, seq=3)
    stale = version(1.0, seq=1)
    replica_state = {"k1": {"n0": newest, "n1": stale, "n2": None}}
    repairs = []
    service = AntiEntropyService(
        simulator,
        sample_keys=lambda n: list(replica_state),
        replica_versions=lambda key: dict(replica_state[key]),
        deliver=lambda node, key, v: repairs.append((node, key)) or True,
    )
    repaired = service.run_round()
    assert repaired == 2
    assert ("n1", "k1") in repairs
    assert ("n2", "k1") in repairs
    assert service.divergent_keys_found == 1


def test_anti_entropy_noop_when_replicas_converged():
    simulator = Simulator(seed=0)
    same = version(3.0)
    service = AntiEntropyService(
        simulator,
        sample_keys=lambda n: ["k"],
        replica_versions=lambda key: {"n0": same, "n1": same},
        deliver=lambda *a: True,
    )
    assert service.run_round() == 0
    assert service.divergent_keys_found == 0


def test_anti_entropy_respects_repair_budget(monkeypatch):
    monkeypatch.setattr(anti_entropy, "MAX_REPAIRS_PER_ROUND", 10)
    simulator = Simulator(seed=0)
    newest = version(9.0, seq=9)
    state = {f"k{i}": {"n0": newest, "n1": None} for i in range(50)}
    service = AntiEntropyService(
        simulator,
        sample_keys=lambda n: list(state),
        replica_versions=lambda key: dict(state[key]),
        deliver=lambda *a: True,
    )
    assert service.run_round() == 10


def test_anti_entropy_periodic_rounds_run_automatically():
    simulator = Simulator(seed=0)
    service = AntiEntropyService(
        simulator,
        sample_keys=lambda n: [],
        replica_versions=lambda key: {},
        deliver=lambda *a: True,
    )
    # One round every 30 s.
    simulator.run_until(156.0)
    assert service.rounds_run == 5
