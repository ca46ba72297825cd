"""Discrete-event simulation kernel.

This package provides the substrate everything else runs on: a deterministic
event-driven engine (:class:`~repro.simulation.engine.Simulator`), queueing
resources used to model node capacity, a network latency/congestion model,
multi-tenant interference processes and time-series recording.
"""

from .engine import PeriodicTask, Simulator
from .errors import (
    ResourceError,
    SchedulingError,
    ShardError,
    SimulationError,
    SimulationStateError,
)
from .events import Event, EventQueue
from .interference import (
    InterferenceConfig,
    InterferenceController,
    NetworkInterference,
    NodeInterference,
)
from .network import NetworkModel
from .randomness import RandomStreams
from .resources import QueueingServer, UtilizationTracker
from .timeseries import SeriesSummary, TimeSeries, TimeSeriesBundle

__all__ = [
    "Simulator",
    "PeriodicTask",
    "SimulationError",
    "SchedulingError",
    "SimulationStateError",
    "ResourceError",
    "ShardError",
    "Event",
    "EventQueue",
    "RandomStreams",
    "QueueingServer",
    "UtilizationTracker",
    "NetworkModel",
    "InterferenceConfig",
    "InterferenceController",
    "NodeInterference",
    "NetworkInterference",
    "TimeSeries",
    "TimeSeriesBundle",
    "SeriesSummary",
]
