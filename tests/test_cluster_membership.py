"""Unit tests for gossip membership and failure detection."""

from __future__ import annotations

import pytest

from repro.cluster import MembershipConfig, MembershipService
from repro.simulation import NetworkModel, Simulator


class FakeNode:
    def __init__(self):
        self.up = True


def make_membership(simulator, node_count=3, **config_overrides):
    network = NetworkModel(simulator)
    config = MembershipConfig(gossip_interval=1.0, failure_timeout=5.0, **config_overrides)
    service = MembershipService(simulator, network, config)
    nodes = {}
    for i in range(node_count):
        node = FakeNode()
        node_id = f"n{i}"
        nodes[node_id] = node
        service.register_node(node_id, is_up=lambda n=node: n.up)
    return service, nodes, network


def test_all_nodes_alive_after_gossip_rounds():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    simulator.run_until(10.0)
    for node_id in nodes:
        view = service.view_of(node_id)
        assert all(view.is_alive(other, simulator.now) for other in nodes)


def test_crashed_node_is_eventually_suspected():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    simulator.run_until(10.0)
    nodes["n2"].up = False
    simulator.run_until(30.0)
    view = service.view_of("n0")
    assert not view.is_alive("n2", simulator.now)


def test_recovered_node_becomes_alive_again():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    simulator.run_until(10.0)
    nodes["n1"].up = False
    simulator.run_until(30.0)
    nodes["n1"].up = True
    simulator.run_until(45.0)
    view = service.view_of("n0")
    assert view.is_alive("n1", simulator.now)


def test_partitioned_node_is_suspected_by_other_side():
    simulator = Simulator(seed=0)
    service, nodes, network = make_membership(simulator)
    simulator.run_until(10.0)
    network.partition({"n0"}, {"n1", "n2"})
    simulator.run_until(40.0)
    view = service.view_of("n1")
    assert not view.is_alive("n0", simulator.now)
    # The isolated node keeps believing in itself.
    own_view = service.view_of("n0")
    assert own_view.is_alive("n0", simulator.now)


def test_operator_view_reflects_actual_liveness_immediately():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    nodes["n1"].up = False
    assert not service.is_alive("n1")
    assert {node_id for node_id in nodes if service.is_alive(node_id)} == {"n0", "n2"}


def test_newly_registered_node_is_not_declared_dead_immediately():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    simulator.run_until(10.0)
    node = FakeNode()
    service.register_node("n99", is_up=lambda: node.up)
    view = service.view_of("n0")
    assert view.is_alive("n99", simulator.now)


def test_deregistered_node_is_forgotten():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    simulator.run_until(5.0)
    service.deregister_node("n2")
    assert service.agent("n2") is None
    # n2 was up and heard from a moment ago: only a forgotten record is dead.
    assert not service.view_of("n0").is_alive("n2", simulator.now)


def test_heartbeats_increase_over_time():
    simulator = Simulator(seed=0)
    service, _nodes, _network = make_membership(simulator)
    agent = service.agent("n0")
    simulator.run_until(20.0)
    assert agent.heartbeat >= 15
