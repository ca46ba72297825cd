"""Unit tests for the multi-tenant interference model."""

from __future__ import annotations

import pytest

from repro.simulation import (
    InterferenceConfig,
    InterferenceController,
    NetworkModel,
    QueueingServer,
    Simulator,
)


def make_setup(enabled=True, **overrides):
    simulator = Simulator(seed=5)
    network = NetworkModel(simulator)
    config = InterferenceConfig(enabled=enabled, update_interval=10.0, **overrides)
    controller = InterferenceController(simulator, network, config)
    return simulator, network, controller


def test_disabled_interference_never_changes_speed():
    simulator, _network, controller = make_setup(enabled=False)
    server = QueueingServer(simulator, "n1")
    controller.attach_server(server)
    simulator.run_until(500.0)
    assert server.speed_factor == 1.0


def test_enabled_interference_perturbs_speed_within_bounds():
    simulator, _network, controller = make_setup(
        enabled=True, node_sigma=0.2, node_min_speed=0.5, node_max_speed=1.1
    )
    server = QueueingServer(simulator, "n1")
    controller.attach_server(server)
    simulator.run_until(1000.0)
    assert server.speed_factor != 1.0
    assert 0.2 <= server.speed_factor <= 1.1


def test_network_external_load_factor_stays_in_range():
    simulator, network, _controller = make_setup(enabled=True, network_sigma=0.3)
    simulator.run_until(1000.0)
    # The NetworkModel clamps to >= 1; the config caps the upper bound.
    assert network.congestion_factor >= 1.0


def test_stop_halts_all_updates():
    simulator, _network, controller = make_setup(enabled=True, node_sigma=0.3)
    server = QueueingServer(simulator, "n1")
    controller.attach_server(server)
    controller.stop()
    simulator.run_until(500.0)
    assert server.speed_factor == 1.0


def test_noisy_neighbour_episode_reduces_speed():
    simulator, _network, controller = make_setup(
        enabled=True,
        noisy_neighbour_probability=1.0,
        noisy_neighbour_severity=0.5,
        node_sigma=0.0,
        node_reversion=1.0,
    )
    server = QueueingServer(simulator, "n1")
    controller.attach_server(server)
    simulator.run_until(50.0)
    assert server.speed_factor <= 0.55


def test_interference_is_deterministic_per_seed():
    def run_once():
        simulator = Simulator(seed=77)
        network = NetworkModel(simulator)
        controller = InterferenceController(
            simulator, network, InterferenceConfig(enabled=True, update_interval=10.0)
        )
        server = QueueingServer(simulator, "n1")
        controller.attach_server(server)
        simulator.run_until(300.0)
        return server.speed_factor

    assert run_once() == pytest.approx(run_once())
