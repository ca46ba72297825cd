"""Exception hierarchy for the simulation kernel.

All simulator-level failures derive from :class:`SimulationError` so callers
can distinguish kernel problems from modelling problems (for example, a
workload handing the engine an event scheduled in the past) without catching
bare ``Exception``.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by :mod:`repro.simulation`."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled at an invalid time.

    The discrete-event engine only moves forward; scheduling an event before
    the current simulation time would silently corrupt causality, so it is an
    error instead.
    """


class SimulationStateError(SimulationError):
    """Raised when the engine is used in a way its lifecycle does not allow.

    Examples include running an engine twice without a reset or scheduling
    events on an engine that has already been stopped.
    """


class ResourceError(SimulationError):
    """Raised for invalid resource usage (e.g. negative service demand)."""


class ShardError(SimulationError):
    """Raised by ``run_sharded`` when one shard of a sharded run fails.

    Names the shard, the shard count and the cause (also chained as
    ``__cause__``): the shard's own exception, or ``BrokenProcessPool``
    carrying the exit code when its forked lane died without sending one.
    """

    def __init__(self, index: int, shards: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {index} of {shards} failed: {type(cause).__name__}: {cause}"
        )
        self.index = index
        self.shards = shards
