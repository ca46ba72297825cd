"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, NodeConfig
from repro.simulation import Simulator


@pytest.fixture
def simulator() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def small_cluster(simulator: Simulator) -> Cluster:
    """A three-node RF=3 cluster on the shared simulator."""
    config = ClusterConfig(
        initial_nodes=3,
        replication_factor=3,
        node=NodeConfig(ops_capacity=400.0),
    )
    return Cluster(simulator, config)


def drive(simulator: Simulator, until: float) -> None:
    """Convenience wrapper used by integration-style tests."""
    simulator.run_until(until)
