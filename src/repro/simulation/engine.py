"""The discrete-event simulation engine.

:class:`Simulator` owns the virtual clock, the event queue and the random
streams.  Components (cluster nodes, workload clients, monitors, the
autonomous controller) never sleep or spin; they schedule callbacks on the
engine and react when those callbacks fire.  The engine is single threaded
and deterministic for a fixed seed, which keeps every experiment in this
repository exactly reproducible.

Typical usage::

    sim = Simulator(seed=42)
    sim.schedule(1.0, lambda: print("one second in"))
    sim.call_every(10.0, tick)           # periodic bookkeeping
    sim.run_until(3600.0)                # one simulated hour
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from sys import maxsize
from typing import Any, Callable, NoReturn, Optional

from .errors import SchedulingError, SimulationStateError
from .events import (
    PRIORITY_CONTROL,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    Event,
    EventQueue,
    _deadline_due,
)
from .randomness import RandomStreams

__all__ = ["Simulator", "PeriodicTask"]


class PeriodicTask:
    """A recurring callback managed by :meth:`Simulator.call_every`.

    The task reschedules itself after each invocation until :meth:`stop` is
    called or the callback returns ``False`` (an explicit opt-out used by
    finite monitors).
    """

    def __init__(
        self,
        simulator: "Simulator",
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        priority: int,
        label: Optional[str],
        jitter: float = 0.0,
    ) -> None:
        if interval <= 0.0:
            raise SchedulingError(f"periodic interval must be > 0, got {interval}")
        self._simulator = simulator
        self._interval = float(interval)
        self._callback = callback
        self._args = args
        self._priority = priority
        self._label = label
        self._jitter = max(0.0, float(jitter))
        self._stopped = False
        self._handle: Optional[Event] = None

    def stop(self) -> None:
        """Stop the task; the pending occurrence (if any) is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    def start(self, first_delay: Optional[float] = None) -> None:
        """Schedule the first occurrence ``first_delay`` seconds from now."""
        delay = self._interval if first_delay is None else float(first_delay)
        self._schedule(delay)

    def _schedule(self, delay: float) -> None:
        if self._stopped:
            return
        if self._jitter > 0.0:
            rng = self._simulator.streams.stream("periodic-jitter")
            delay = max(0.0, delay + float(rng.uniform(-self._jitter, self._jitter)))
        self._handle = self._simulator.schedule_in(
            delay, self._fire, priority=self._priority, label=self._label
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        result = self._callback(*self._args)
        # An explicit opt-out, or a callback that stopped the kernel: the
        # task ends rather than reschedule onto a stopped simulator.
        if result is False or self._simulator._horizon == -math.inf:
            self._stopped = True
            return
        self._schedule(self._interval)


class Simulator:
    """Deterministic, single-threaded discrete-event simulator."""

    #: Re-exported priorities so components do not import ``events`` directly.
    PRIORITY_CONTROL = PRIORITY_CONTROL
    PRIORITY_NORMAL = PRIORITY_NORMAL
    PRIORITY_LATE = PRIORITY_LATE

    def __init__(
        self, seed: int = 0, start_time: float = 0.0, stream_namespace: str = ""
    ) -> None:
        self.now = float(start_time)
        """Current simulation time in seconds.  A plain attribute, not a
        property: every layer reads it several times per operation and only
        the run loop below writes it (PERFORMANCE.md rule 12)."""
        self._start_time = float(start_time)
        self._queue = EventQueue()
        self._streams = RandomStreams(seed, namespace=stream_namespace)
        self._running = False
        # Events are accepted strictly before this time: +inf while the
        # kernel is live, -inf once stopped, so the one comparison the
        # scheduling fast paths make also rejects NaN and infinite times.
        self._horizon = math.inf
        self._events_processed = 0
        self._trace_hooks: list[Callable[[float, Optional[str]], None]] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def start_time(self) -> float:
        """Time the simulation started at (usually ``0.0``)."""
        return self._start_time

    @property
    def streams(self) -> RandomStreams:
        """Named deterministic random streams shared by all components."""
        return self._streams

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (``run_until`` adds its
        count when it returns)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently waiting, parked deadlines included."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        Returns the :class:`Event`, whose ``cancel()`` withdraws it.
        """
        if not self.now <= time < self._horizon:
            self._refuse(time)
        return self._queue.push(time, callback, args, priority=priority, label=label)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now.

        Returns the :class:`Event`, whose ``cancel()`` withdraws it; a caller
        that never cancels uses :meth:`post_in`, and one that arms a
        timeout it nearly always cancels uses :meth:`deadline_in`.  Periodic
        tasks, faults and the timer wheel's unwheelable arms (short hedges)
        come through here, so it is a deliberate inline of
        :meth:`EventQueue.push`'s body: each avoided Python frame is
        measurable at millions of events.  Keep the two in sync
        (``tests/test_simulation_events.py`` compares every scheduling path
        against ``push``).
        """
        time = self.now + delay
        if not (delay >= 0.0 and time < self._horizon):
            self._refuse(time, delay)
        queue = self._queue
        sequence = queue._sequence
        queue._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, args, False, label)
        heap = queue._heap
        heappush(heap, (time, priority, sequence, callback, args, label, event))
        if len(heap) > queue._peak_pending:
            queue._peak_pending = len(heap)
        return event

    def post_in(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        label: Optional[str] = None,
    ) -> None:
        """:meth:`schedule_in` for a callback nobody will cancel.

        Same checks, sequence number, counters and firing order, but no
        :class:`Event` is built and nothing is returned.  The kernel's
        hottest entry point: every message delivery, service completion and
        arrival.
        """
        time = self.now + delay
        if not (delay >= 0.0 and time < self._horizon):
            self._refuse(time, delay)
        queue = self._queue
        sequence = queue._sequence
        queue._sequence = sequence + 1
        heap = queue._heap
        heappush(heap, (time, priority, sequence, callback, args, label, None))
        if len(heap) > queue._peak_pending:
            queue._peak_pending = len(heap)

    def deadline_in(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: Optional[str] = None,
    ) -> Event:
        """:meth:`schedule_in` for a deadline that is usually cancelled first.

        Same checks, errors, sequence number, counters, firing time and order
        (at ``PRIORITY_NORMAL``), and the same cancellable :class:`Event`
        back.  The deadline is parked in a FIFO of its ``delay`` and reaches
        the heap only as the FIFO's next live deadline (module note of
        :mod:`repro.simulation.events`): one cancelled while an earlier
        deadline of the same delay is pending never touches the heap.  The
        coordinator arms its operation timeouts here on a stack without the
        timer wheel.
        """
        time = self.now + delay
        if not (delay >= 0.0 and time < self._horizon):
            self._refuse(time, delay)
        queue = self._queue
        sequence = queue._sequence
        queue._sequence = sequence + 1
        event = Event(time, PRIORITY_NORMAL, sequence, callback, args, False, label)
        fifo = queue._deadlines.get(delay)
        if fifo is None:
            queue._deadlines[delay] = deque()
            queue._heap_front(delay, event)
        else:
            fifo.append(event)
        return event

    def _refuse(self, time: float, delay: float = 0.0) -> NoReturn:
        """Slow path of the scheduling calls: name what was wrong."""
        if delay < 0.0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        if self._horizon == -math.inf:
            raise SimulationStateError("cannot schedule events on a stopped simulator")
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time}")
        raise SchedulingError(
            f"cannot schedule event at {time:.6f}, current time is {self.now:.6f}"
        )

    def call_every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        first_delay: Optional[float] = None,
        priority: int = PRIORITY_NORMAL,
        label: Optional[str] = None,
        jitter: float = 0.0,
    ) -> PeriodicTask:
        """Run ``callback(*args)`` every ``interval`` simulated seconds.

        Returns the :class:`PeriodicTask`, which the caller can stop or
        re-pace (e.g. a monitor adapting its probe rate).
        """
        task = PeriodicTask(self, interval, callback, args, priority, label, jitter)
        task.start(first_delay)
        return task

    def add_trace_hook(self, hook: Callable[[float, Optional[str]], None]) -> None:
        """Register a hook called with ``(time, label)`` for every event fired."""
        self._trace_hooks.append(hook)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when the queue is empty."""
        entry = self._queue._pop_entry()
        if entry is None:
            return False
        time = entry[0]
        if time < self.now:
            # Defensive: the queue is ordered, so this indicates a kernel bug.
            raise SimulationStateError(
                f"event queue returned an event in the past ({time} < {self.now})"
            )
        self.now = time
        self._events_processed += 1
        if self._trace_hooks:
            for hook in self._trace_hooks:
                hook(time, entry[5])
        entry[3](*entry[4])
        return True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events until the clock reaches ``end_time``.

        The clock is advanced to exactly ``end_time`` when the queue drains or
        only holds later events, so back-to-back ``run_until`` calls compose.
        A ``max_events`` stop with events due by ``end_time`` still pending
        leaves the clock at the last fired event.  Returns the number of
        events executed by this call.
        """
        if end_time < self.now:
            raise SchedulingError(
                f"cannot run to {end_time:.6f}, current time is {self.now:.6f}"
            )
        if not end_time < math.inf:
            # NaN or +inf: no event is ever later, so only a drained queue
            # would end the call.
            raise SchedulingError(f"cannot run to a non-finite end time {end_time}")
        if self._running:
            raise SimulationStateError("run_until is not reentrant")
        self._running = True
        executed = 0
        # Hot loop: the queue probe is written out here rather than called
        # (one frame per fired event): cancelled heads are discarded exactly
        # once, and an event beyond ``end_time`` stays in the heap.  The heap
        # and ``_trace_hooks`` are aliased, not copied, so ``stop()`` and
        # hooks registered mid-run take effect at once.  Only ``executed``
        # is counted per event; the counters it implies are added on exit.
        queue = self._queue
        heap = queue._heap
        hooks = self._trace_hooks
        now = self.now
        # ``sys.maxsize`` rather than ``math.inf`` as the no-budget sentinel:
        # an int/int comparison per event is measurably cheaper here than
        # int/float, and no run can execute that many events.
        limit = maxsize if max_events is None else max_events
        try:
            while heap:
                head = heap[0]
                handle = head[6]
                if handle is not None and handle.cancelled:
                    heappop(heap)
                    queue._cancelled_skipped += 1
                    if head[3] is _deadline_due:
                        queue._advance_fifo(head[4][1])
                    continue
                time = head[0]
                if time > end_time or executed >= limit:
                    break
                heappop(heap)
                if time < now:
                    # Same defensive guard as step(): fail loud rather than
                    # silently rewinding the timeline.
                    raise SimulationStateError(
                        f"event queue returned an event in the past ({time} < {now})"
                    )
                self.now = now = time
                executed += 1
                if hooks:
                    for hook in hooks:
                        hook(time, head[5])
                head[3](*head[4])
        finally:
            self._running = False
            self._events_processed += executed
            queue._fired += executed
        # The loop leaves a live head: past ``end_time``, or due by it when
        # the budget ran out, and then the clock must not pass it.
        if not heap or heap[0][0] > end_time:
            self.now = max(self.now, end_time)
        return executed

    def run_until_empty(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by ``max_events``)."""
        if self._running:
            raise SimulationStateError("run_until_empty is not reentrant")
        self._running = True
        executed = 0
        try:
            while executed < max_events and self.step():
                executed += 1
        finally:
            self._running = False
        return executed

    def stop(self) -> None:
        """Permanently stop the simulator and drop pending events."""
        self._horizon = -math.inf
        self._queue.clear()

    def queue_stats(self) -> dict[str, Any]:
        """Event-queue counters (:attr:`EventQueue.stats`)."""
        return self._queue.stats
