"""Queueing resources used to model node CPU / disk capacity.

A storage node's data path is modelled as a single :class:`QueueingServer`
with exponential (configurable) service times: requests queue FIFO, the
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

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Deque, Optional
from collections import deque

from .engine import Simulator
from .errors import ResourceError
from .randomness import LognormalSampler

__all__ = ["QueueingServer", "ServiceRequest", "UtilizationTracker"]


@dataclass(slots=True)
class ServiceRequest:
    """A unit of work submitted to a :class:`QueueingServer` (one per request)."""

    demand: float
    """Service demand in seconds at nominal (1.0) speed."""

    on_complete: Callable[[float], None]
    """Callback invoked with the completion time when service finishes."""

    enqueued_at: float = 0.0
    started_at: Optional[float] = None
    label: Optional[str] = None


_demand_of = attrgetter("demand")


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
        if service_rate <= 0.0:
            raise ResourceError(f"service_rate must be > 0, got {service_rate}")
        self._simulator = simulator
        self._name = name
        self._service_rate = float(service_rate)
        self._speed_factor = 1.0
        self._fault_factor = 1.0
        self._service_cv = float(service_cv)
        self._queue: Deque[ServiceRequest] = deque()
        self._in_service: Optional[ServiceRequest] = None
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
        if factor <= 0.0:
            raise ResourceError(f"speed factor must be > 0, got {factor}")
        self._speed_factor = float(factor)

    def set_service_rate(self, rate: float) -> None:
        """Change the nominal service rate (vertical scaling)."""
        if rate <= 0.0:
            raise ResourceError(f"service_rate must be > 0, got {rate}")
        self._service_rate = float(rate)

    @property
    def fault_factor(self) -> float:
        """Injected gray-failure multiplier (1.0 = healthy).

        Kept separate from :attr:`speed_factor` because interference
        *overwrites* the speed factor on every update tick — a fail-slow
        fault must compose with interference rather than be erased by it.
        """
        return self._fault_factor

    def set_fault_factor(self, factor: float) -> None:
        """Scale the effective rate for an injected fail-slow fault."""
        if factor <= 0.0:
            raise ResourceError(f"fault factor must be > 0, got {factor}")
        self._fault_factor = float(factor)

    @property
    def effective_rate(self) -> float:
        """Current effective rate = nominal rate x speed factor x fault factor."""
        return self._service_rate * self._speed_factor * self._fault_factor

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

    def submit(
        self,
        demand: float,
        on_complete: Callable[[float], None],
        label: Optional[str] = None,
    ) -> None:
        """Submit a request with the given service demand (seconds at speed 1).

        A demand so large that its noisy draw passes the largest float raises
        ``OverflowError`` (:meth:`LognormalSampler.sample_with`).
        """
        if demand < 0.0:
            raise ResourceError(f"service demand must be >= 0, got {demand}")
        noisy_demand = self._noise.sample_with(self._normal, demand)
        request = ServiceRequest(
            demand=noisy_demand,
            on_complete=on_complete,
            enqueued_at=self._simulator.now,
            label=label,
        )
        self._queue.append(request)
        if self._in_service is None:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            return
        request = self._queue.popleft()
        now = self._simulator.now
        request.started_at = now
        self._total_queue_time += now - request.enqueued_at
        self._in_service = request
        self.utilization.mark_busy(now)
        service_time = request.demand / self.effective_rate
        self._simulator.post_in(
            service_time, self._finish, request, label=self._finish_label
        )

    def _finish(self, request: ServiceRequest) -> None:
        now = self._simulator.now
        self._completed += 1
        if request.started_at is not None:
            self._total_busy_time += now - request.started_at
        self._in_service = None
        if self._queue:
            self._start_next()
        else:
            self.utilization.mark_idle(now)
        request.on_complete(now)

    def estimated_wait(self) -> float:
        """Rough estimate of the delay a new request would see (for planners).

        The backlog is summed afresh on every call (PERFORMANCE.md rule 4: a
        running sum would round differently); ``map`` over ``attrgetter`` feeds ``sum``
        the same demands in the same order without a generator frame per
        queued request.
        """
        backlog = sum(map(_demand_of, self._queue))
        if self._in_service is not None:
            backlog += self._in_service.demand / 2.0
        return backlog / self.effective_rate
