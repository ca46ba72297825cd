"""Queueing resources used to model node CPU / disk capacity.

A storage node's data path is modelled as a single :class:`QueueingServer`
with lognormal (configurable) service times: requests queue FIFO, the
server works at a (possibly time-varying) service rate, and the sojourn time
of a request is its queueing delay plus its service time.  This is the
mechanism through which load translates into latency *and* into replication
lag — asynchronous replica writes sit in the same queue as foreground work,
so a saturated replica applies updates late and the inconsistency window
grows.  That causal chain is the heart of the paper's problem statement.

The server also tracks utilisation over time, which the monitoring subsystem
samples and the autonomous controller uses for capacity planning.
"""

from __future__ import annotations

from collections import deque
from math import inf
from operator import itemgetter
from typing import Callable, Deque, Optional, Tuple

from .engine import Simulator
from .errors import ResourceError
from .randomness import LognormalSampler

__all__ = ["QueueingServer", "UtilizationTracker"]

#: A queued unit of work: ``(noisy demand in seconds at speed 1, completion
#: callback taking the completion time, enqueue time)``.
_Work = Tuple[float, Callable[[float], None], float]

_demand_of = itemgetter(0)


def _positive(name: str, value: float) -> float:
    """``value`` as a float; a ``ResourceError`` naming it unless finite and > 0."""
    if not 0.0 < value < inf:
        raise ResourceError(f"{name} must be finite and > 0, got {value}")
    return float(value)


class UtilizationTracker:
    """Tracks the busy fraction of a server over a sliding window.

    Utilisation is computed as busy-time / wall-time over the window that
    ended at the last :meth:`sample` call.  The tracker is deliberately
    simple (piecewise integration of the busy indicator) so its output is
    exact rather than sampled.
    """

    def __init__(self) -> None:
        self._busy_since: Optional[float] = None
        self._busy_accum = 0.0
        self._window_start = 0.0
        self._last_utilization = 0.0

    def mark_busy(self, now: float) -> None:
        """Record that the server became busy at ``now``."""
        if self._busy_since is None:
            self._busy_since = now

    def mark_idle(self, now: float) -> None:
        """Record that the server became idle at ``now``."""
        if self._busy_since is not None:
            self._busy_accum += now - self._busy_since
            self._busy_since = None

    def sample(self, now: float) -> float:
        """Return utilisation since the previous sample and start a new window."""
        busy = self._busy_accum
        if self._busy_since is not None:
            busy += now - self._busy_since
            self._busy_since = now
        elapsed = now - self._window_start
        self._busy_accum = 0.0
        self._window_start = now
        if elapsed <= 0.0:
            return self._last_utilization
        self._last_utilization = min(1.0, busy / elapsed)
        return self._last_utilization

    @property
    def last_utilization(self) -> float:
        """Most recently sampled utilisation (0..1)."""
        return self._last_utilization


class QueueingServer:
    """A FIFO single-server queue with a controllable speed factor.

    Parameters
    ----------
    simulator:
        Owning simulation engine.
    name:
        Identifier used for random-stream derivation and debugging.
    service_rate:
        Nominal capacity in "service demand seconds per second"; ``1.0``
        means demands are served in real time, ``2.0`` means twice as fast.
    service_cv:
        Coefficient of variation applied to each request's demand (lognormal
        noise) so the queue exhibits realistic latency variance.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        service_rate: float = 1.0,
        service_cv: float = 0.25,
    ) -> None:
        if not 0.0 <= service_cv < inf:
            raise ResourceError(f"service_cv must be finite and >= 0, got {service_cv}")
        self._simulator = simulator
        self._name = name
        self._service_rate = _positive("service_rate", service_rate)
        self._speed_factor = 1.0
        self._fault_factor = 1.0
        self._rate_changed()
        self._service_cv = float(service_cv)
        self._queue: Deque[_Work] = deque()
        self._in_service: Optional[float] = None  # its demand, None when idle
        self._post_in = simulator.post_in
        # Every draw of the server's stream is a noise normal, so it is read a
        # chunk at a time through the name's shared source (PERFORMANCE.md
        # rule 20).
        self._normal = simulator.streams.normals(f"server:{name}")
        # Per-request hot-path constants: the demand-noise sampler caches the
        # CV-derived lognormal constants, and the finish label is rendered
        # once instead of on every completion.
        self._noise = LognormalSampler(self._service_cv)
        self._finish_label = f"server:{name}:finish"
        self.utilization = UtilizationTracker()
        self._completed = 0
        self._total_busy_time = 0.0
        self._total_queue_time = 0.0

    # ------------------------------------------------------------------
    # Capacity control (used by interference and by vertical-scaling actions)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Server identifier."""
        return self._name

    @property
    def service_rate(self) -> float:
        """Nominal service rate (demand-seconds per second)."""
        return self._service_rate

    @property
    def speed_factor(self) -> float:
        """Multiplier on the nominal rate; interference lowers it below 1."""
        return self._speed_factor

    def set_speed_factor(self, factor: float) -> None:
        """Adjust the effective speed (e.g. multi-tenant interference)."""
        self._speed_factor = _positive("speed factor", factor)
        self._rate_changed()

    def set_fault_factor(self, factor: float) -> None:
        """Scale the effective rate for an injected fail-slow fault.

        Kept apart from the speed factor, which interference overwrites on
        every tick: a fail-slow fault composes with interference.
        """
        self._fault_factor = _positive("fault factor", factor)
        self._rate_changed()

    def _rate_changed(self) -> None:
        """Derive the effective rate once per change (PERFORMANCE.md rule 12)."""
        self._effective_rate = self._service_rate * self._speed_factor * self._fault_factor

    @property
    def effective_rate(self) -> float:
        """Current effective rate = nominal rate x speed factor x fault factor."""
        return self._effective_rate

    # ------------------------------------------------------------------
    # Queue interface
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Number of requests waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """Whether a request is currently in service."""
        return self._in_service is not None

    @property
    def completed(self) -> int:
        """Total number of completed requests."""
        return self._completed

    @property
    def total_busy_time(self) -> float:
        """Cumulative seconds the server has spent serving requests."""
        return self._total_busy_time

    @property
    def mean_queue_delay(self) -> float:
        """Average queueing delay over all completed requests."""
        if self._completed == 0:
            return 0.0
        return self._total_queue_time / self._completed

    def submit(self, demand: float, on_complete: Callable[[float], None]) -> None:
        """Submit work with the given service demand (seconds at speed 1);
        ``on_complete`` is called with the completion time.

        A demand so large that its noisy draw passes the largest float raises
        ``OverflowError`` (:meth:`LognormalSampler.sample_with`).
        """
        if not 0.0 <= demand < inf:
            raise ResourceError(f"service demand must be finite and >= 0, got {demand}")
        noisy_demand = self._noise.sample_with(self._normal, demand)
        now = self._simulator.now
        if self._in_service is None:
            self.utilization.mark_busy(now)
            self._start(noisy_demand, on_complete, now)
        else:
            self._queue.append((noisy_demand, on_complete, now))

    def _start(
        self, demand: float, on_complete: Callable[[float], None], enqueued_at: float
    ) -> None:
        """Serve one unit of work from now; the server is already marked busy."""
        now = self._simulator.now
        self._total_queue_time += now - enqueued_at
        self._in_service = demand
        self._post_in(
            demand / self._effective_rate,
            self._finish,
            on_complete,
            now,
            label=self._finish_label,
        )

    def _finish(self, on_complete: Callable[[float], None], started_at: float) -> None:
        now = self._simulator.now
        self._completed += 1
        self._total_busy_time += now - started_at
        self._in_service = None
        if self._queue:
            self._start(*self._queue.popleft())
        else:
            self.utilization.mark_idle(now)
        on_complete(now)

    def estimated_wait(self) -> float:
        """Rough estimate of the delay a new request would see (for planners).

        The backlog is summed afresh on every call (PERFORMANCE.md rule 4: a
        running sum would round differently); ``map`` over ``itemgetter`` feeds
        ``sum`` the same demands in the same order without a generator frame
        per queued request.
        """
        backlog = sum(map(_demand_of, self._queue))
        if self._in_service is not None:
            backlog += self._in_service / 2.0
        return backlog / self._effective_rate
