"""Multi-tenant interference processes.

Section 2 of the paper attributes the drift of the inconsistency window to
the fact that "the cloud infrastructure is a shared resource": other tenants
allocate and release resources, which changes the effective capacity seen by
the database nodes and the network.  We reproduce that with two stochastic
processes:

* :class:`NodeInterference` — modulates a node server's ``speed_factor``
  with an Ornstein-Uhlenbeck-like mean-reverting random walk, optionally with
  occasional deep "noisy neighbour" episodes, and
* :class:`NetworkInterference` — modulates the network's external load
  factor the same way.

Both are deliberately slow-moving (minutes) compared to request latencies
(milliseconds), matching the long-term drift Bermbach & Tai report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cluster.errors import Settings, fraction, non_negative, positive, positive_fraction
from .engine import Simulator
from .network import NetworkModel
from .resources import QueueingServer

__all__ = [
    "InterferenceConfig",
    "NodeInterference",
    "NetworkInterference",
    "InterferenceController",
]

#: Seconds between interference updates.
UPDATE_INTERVAL = 30.0

#: Mean-reversion strength of a node's speed factor towards 1.0 per update.
NODE_REVERSION = 0.2

#: Bounds on a node's speed factor (slight boosts allowed).
NODE_MIN_SPEED = 0.4
NODE_MAX_SPEED = 1.1


@dataclass
class InterferenceConfig(Settings):
    """Parameters of the background-interference model."""

    enabled: bool = True
    node_sigma: float = non_negative(0.05)
    """Step standard deviation of the node speed random walk."""

    noisy_neighbour_probability: float = fraction(0.01)
    """Per-update probability that a node enters a noisy-neighbour episode."""

    noisy_neighbour_severity: float = positive_fraction(0.5)
    """Speed factor multiplier applied during a noisy-neighbour episode."""

    noisy_neighbour_duration: float = positive(120.0)
    """Length of a noisy-neighbour episode in seconds."""


class NodeInterference:
    """Mean-reverting random walk on one node's speed factor."""

    def __init__(
        self,
        simulator: Simulator,
        server: QueueingServer,
        config: InterferenceConfig,
        index: int,
    ) -> None:
        self._simulator = simulator
        self._server = server
        self._config = config
        self._rng = simulator.streams.spawn("interference-node", index)
        self._speed = 1.0
        self._episode_until: Optional[float] = None

    def update(self) -> None:
        """Advance the random walk one step and apply it to the server."""
        cfg = self._config
        noise = float(self._rng.normal(0.0, cfg.node_sigma))
        self._speed += NODE_REVERSION * (1.0 - self._speed) + noise
        self._speed = min(NODE_MAX_SPEED, max(NODE_MIN_SPEED, self._speed))

        now = self._simulator.now
        if self._episode_until is not None and now >= self._episode_until:
            self._episode_until = None
        if (
            self._episode_until is None
            and self._rng.random() < cfg.noisy_neighbour_probability
        ):
            self._episode_until = now + cfg.noisy_neighbour_duration

        effective = self._speed
        if self._episode_until is not None:
            effective *= cfg.noisy_neighbour_severity
        effective = max(NODE_MIN_SPEED * cfg.noisy_neighbour_severity, effective)
        self._server.set_speed_factor(effective)


#: Step standard deviation and mean-reversion strength (towards 1.0 per
#: update) of the network factor, and the factor's upper bound.
NETWORK_SIGMA = 0.08
NETWORK_REVERSION = 0.25
NETWORK_MAX_FACTOR = 2.5


class NetworkInterference:
    """Mean-reverting random walk on the network's external load factor."""

    def __init__(self, simulator: Simulator, network: NetworkModel) -> None:
        self._network = network
        self._rng = simulator.streams.stream("interference-network")
        self._factor = 1.0

    @property
    def factor(self) -> float:
        """Current external network load factor (>= 1)."""
        return self._factor

    def update(self) -> None:
        """Advance the random walk one step and apply it to the network."""
        noise = float(self._rng.normal(0.0, NETWORK_SIGMA))
        self._factor += NETWORK_REVERSION * (1.0 - self._factor) + noise
        self._factor = min(NETWORK_MAX_FACTOR, max(1.0, self._factor))
        self._network.set_external_load_factor(self._factor)


class InterferenceController:
    """Owns all interference processes and drives them periodically."""

    def __init__(
        self,
        simulator: Simulator,
        network: NetworkModel,
        config: Optional[InterferenceConfig] = None,
    ) -> None:
        self._simulator = simulator
        self._config = config or InterferenceConfig()
        self._node_processes: List[NodeInterference] = []
        self._network_process = NetworkInterference(simulator, network)
        self._task = None
        if self._config.enabled:
            self._task = simulator.call_every(
                UPDATE_INTERVAL,
                self._tick,
                label="interference:tick",
                priority=Simulator.PRIORITY_CONTROL,
            )

    def attach_server(self, server: QueueingServer) -> NodeInterference:
        """Start interfering with a (new) node server; returns its process."""
        process = NodeInterference(
            self._simulator, server, self._config, index=len(self._node_processes)
        )
        self._node_processes.append(process)
        return process

    def _tick(self) -> None:
        if not self._config.enabled:
            return
        for process in self._node_processes:
            process.update()
        self._network_process.update()

    def stop(self) -> None:
        """Stop the periodic updates."""
        if self._task is not None:
            self._task.stop()
