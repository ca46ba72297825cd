"""Unit tests for gossip membership and failure detection."""

from __future__ import annotations

import pytest

from repro.cluster import MembershipService, MembershipView
from repro.simulation import NetworkModel, Simulator


class FakeNode:
    def __init__(self):
        self.up = True


def make_membership(simulator, node_count=3):
    network = NetworkModel(simulator)
    service = MembershipService(simulator, network)
    nodes = {}
    for i in range(node_count):
        node = FakeNode()
        node_id = f"n{i}"
        nodes[node_id] = node
        service.register_node(node_id, is_up=lambda n=node: n.up)
    return service, nodes, network


def view_of(service, node_id):
    return service._agents[node_id].view


def test_all_nodes_alive_after_gossip_rounds():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    simulator.run_until(10.0)
    for node_id in nodes:
        view = view_of(service, node_id)
        assert all(view.is_alive(other, simulator.now) for other in nodes)


def test_crashed_node_is_eventually_suspected():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    simulator.run_until(10.0)
    nodes["n2"].up = False
    simulator.run_until(30.0)
    view = view_of(service, "n0")
    assert not view.is_alive("n2", simulator.now)


def test_recovered_node_becomes_alive_again():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    simulator.run_until(10.0)
    nodes["n1"].up = False
    simulator.run_until(30.0)
    nodes["n1"].up = True
    simulator.run_until(45.0)
    view = view_of(service, "n0")
    assert view.is_alive("n1", simulator.now)


def test_partitioned_node_is_suspected_by_other_side():
    simulator = Simulator(seed=0)
    service, nodes, network = make_membership(simulator)
    simulator.run_until(10.0)
    network.partition({"n0"}, {"n1", "n2"})
    simulator.run_until(40.0)
    view = view_of(service, "n1")
    assert not view.is_alive("n0", simulator.now)
    # The isolated node keeps believing in itself.
    own_view = view_of(service, "n0")
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
    view = view_of(service, "n0")
    assert view.is_alive("n99", simulator.now)


def test_deregistered_node_is_forgotten():
    simulator = Simulator(seed=0)
    service, nodes, _network = make_membership(simulator)
    simulator.run_until(5.0)
    service.deregister_node("n2")
    assert "n2" not in service._agents
    # n2 was up and heard from a moment ago: only a forgotten record is dead.
    assert not view_of(service, "n0").is_alive("n2", simulator.now)


def test_heartbeats_increase_over_time():
    simulator = Simulator(seed=0)
    service, _nodes, _network = make_membership(simulator)
    agent = service._agents["n0"]
    simulator.run_until(20.0)
    assert agent.heartbeat >= 15


def test_alive_among_answers_what_is_alive_answered_for_each_node():
    # The request path's one call per request: the same answer, in the same
    # order, as the viewer's ``is_alive`` for each node, through a crash, a
    # partition and a decommission, for a node no view has heard of and for
    # a viewer without a view (the operator's liveness then answers).
    simulator = Simulator(seed=0)
    service, nodes, network = make_membership(simulator, node_count=5)
    lists = (["n0", "n1", "n2"], ["n4", "n3", "n2", "n1"], ["n2", "ghost", "n0"], [], ["n3"])
    seen = set()
    for until, change in (
        (10.0, lambda: setattr(nodes["n3"], "up", False)),
        (30.0, lambda: network.partition({"n0", "n1"}, {"n2", "n4"})),
        (50.0, lambda: service.deregister_node("n4")),
        (60.0, network.heal_partition),
        (80.0, lambda: None),
    ):
        simulator.run_until(until)
        for viewer in (*nodes, "ghost"):
            agent = service._agents.get(viewer)
            for node_ids in lists:
                if agent is None:
                    expected = [n for n in node_ids if service.is_alive(n)]
                else:
                    expected = [n for n in node_ids if agent.view.is_alive(n, simulator.now)]
                answer = service.alive_among(viewer, list(node_ids), simulator.now)
                assert answer == expected, (until, viewer, node_ids)
                seen.add(len(answer) < len(node_ids))
        change()
    # Both answers were given: everyone alive, and someone suspected.
    assert seen == {False, True}


def test_merge_digest_is_observe_for_each_entry():
    merged, observed = MembershipView("n0"), MembershipView("n0")
    for view in (merged, observed):
        view.observe("n1", 4, 1.0)
        view.observe("n2", 9, 1.0)
    digest = {"n1": 5, "n2": 9, "n3": 2, "n0": 7}
    merged.merge_digest(digest, 3.5)
    for node_id, heartbeat in digest.items():
        observed.observe(node_id, heartbeat, 3.5)
    assert merged._records == observed._records
    assert merged.digest() == {"n0": 7, "n1": 5, "n2": 9, "n3": 2}
