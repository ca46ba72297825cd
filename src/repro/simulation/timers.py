"""Amortised timers: a hashed wheel feeding the exact event heap.

The hedged stack arms one timer per read (the hedge budget) and one per
operation (the timeout) — and cancels almost all of them within a few
milliseconds of arming.  Routing those through :meth:`Simulator.schedule_in`
means every arm is a ``heappush`` and every cancel leaves a corpse the hot
loop must later sift out (``cancelled_skipped``): the speculative machinery
roughly doubles heap churn per read for timers that overwhelmingly never
fire.

:class:`TimerService` erases that tax with a classic hashed timer wheel in
front of the heap:

* **arm** is O(1): the timer is appended to a coarse bucket keyed by
  ``floor(deadline / granularity)``.  The first timer to land in a bucket
  schedules one *tick* event at the bucket's start time — every later timer
  in the same bucket costs a dict lookup and a list append, no heap at all.
* **cancel** is O(1) and free: it flips the timer's ``cancelled`` flag.  A
  timer cancelled before its bucket ticks is simply skipped at the tick —
  it never touches the heap and leaves no corpse for the run loop to sift.
* **promotion preserves exactness**: at the tick, each surviving timer is
  pushed into the heap at its *precise* deadline carrying the queue
  sequence number *reserved at arm time*.  Heap order is
  ``(time, priority, sequence)``, so a promoted timer sorts exactly as if
  it had been pushed by ``schedule_in`` at the moment it was armed —
  survivors fire at bit-identical times, in bit-identical order, with
  bit-identical interleaving against ordinary events
  (``tests/test_simulation_timers.py`` property-tests this equivalence).

The tick runs at :data:`PRIORITY_TIMER_TICK` (below every user priority),
so a bucket's survivors are already in the heap before any ordinary event
at the tick's timestamp executes.  Arms whose deadline cannot be wheeled —
the bucket's start is already in the past, or floating-point rounding put
the tick after the deadline — fall back to a direct ``schedule_in``, which
is always correct (the wheel is an optimisation, never a semantic).

Only pipelines that declare a ``timer_granularity`` get a TimerService
(see ``MiddlewarePipeline``); every other stack binds its timer arms
straight to ``Simulator.deadline_in`` and never constructs one.  That
kernel-level deadline queue parks each timeout in a FIFO of its delay and
heaps only the next live one, under its own sequence number, so it too
fires exactly what ``schedule_in`` would (PERFORMANCE.md rules 6/7/11/19).
It has no ticks, so the default stack's event sequence stays bit-identical.
The wheel stays for the hedged stack: its hedge budgets take many distinct
values, and routing its timeouts through the deadline queue instead would
drop the ticks only timeouts needed and so move ``events_processed``.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from .errors import SchedulingError
from .events import PRIORITY_NORMAL, Event

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from .engine import Simulator

__all__ = ["TimerService", "PRIORITY_TIMER_TICK", "DEFAULT_TIMER_GRANULARITY"]

#: Priority of a bucket's promotion tick.  Below ``PRIORITY_CONTROL`` so
#: survivors are heaped before *anything* else runs at the tick timestamp.
PRIORITY_TIMER_TICK = -100

#: Default wheel granularity in seconds.  Chosen against the hedged stack's
#: timer population: operation timeouts (~1 s) are always wheelable and
#: cancelled ~5 ms after arming — far before their bucket ticks — while
#: hedge budgets (1–50 ms) wheel whenever the budget spans a bucket edge.
DEFAULT_TIMER_GRANULARITY = 0.025


class TimerService:
    """Hashed timer wheel with O(1) arm / O(1) lazy cancel over a Simulator.

    ``arm`` mirrors :meth:`Simulator.schedule_in`'s signature and returns
    the same cancellable :class:`Event`, so call sites swap between the two
    by rebinding one attribute.
    """

    __slots__ = (
        "_simulator",
        "_granularity",
        "_buckets",
        "timers_armed",
        "timers_wheeled",
        "timers_direct",
        "timers_cancelled",
        "timers_promoted",
    )

    def __init__(
        self, simulator: "Simulator", granularity: float = DEFAULT_TIMER_GRANULARITY
    ) -> None:
        if not (granularity > 0.0 and math.isfinite(granularity)):
            raise SchedulingError(
                f"timer granularity must be finite and > 0, got {granularity}"
            )
        self._simulator = simulator
        self._granularity = float(granularity)
        # bucket index -> timers armed into that bucket, in arm order.
        self._buckets: Dict[int, List[Event]] = {}

        self.timers_armed = 0
        """Total ``arm`` calls (wheeled + direct)."""

        self.timers_wheeled = 0
        """Arms parked in a wheel bucket (never heaped unless they survive)."""

        self.timers_direct = 0
        """Arms that fell back to a direct ``schedule_in`` (unwheelable)."""

        self.timers_cancelled = 0
        """Wheeled timers cancelled before their bucket ticked — zero heap cost."""

        self.timers_promoted = 0
        """Wheeled timers that survived to their tick and entered the heap."""

    @property
    def granularity(self) -> float:
        """Bucket width in simulated seconds."""
        return self._granularity

    def arm(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        label: Optional[str] = None,
    ) -> Event:
        """Arm ``callback(*args)`` to fire ``delay`` seconds from now.

        Semantically identical to ``Simulator.schedule_in`` — same
        validation, same returned event, same firing time/order for
        survivors — but cancels that land before the bucket tick cost nothing.
        """
        # One frame: the sequence reservation and the tick's heap push are
        # the queue's steps written out, the way ``schedule_in`` writes out
        # ``push`` (``tests/test_simulation_events.py`` holds the two to a
        # reservation plus ``Simulator.schedule``).
        self.timers_armed += 1
        simulator = self._simulator
        now = simulator.now
        deadline = now + delay
        # The comparison ``schedule`` makes: finite, not in the past, kernel
        # live.  Whatever fails it goes to ``schedule_in``, which raises.
        if now <= deadline < simulator._horizon:
            granularity = self._granularity
            bucket = int(deadline // granularity)
            tick_time = bucket * granularity
            # Wheelable unless the bucket already started (a short delay
            # inside the current bucket) or float rounding pushed the tick
            # past the deadline; direct scheduling is always exact.
            if now < tick_time <= deadline:
                self.timers_wheeled += 1
                queue = simulator._queue
                # Reserve the sequence number *now*: if the timer survives to
                # its tick it enters the heap sorting exactly as if pushed
                # here.  Until then it is counted in ``_reserved``, not in
                # ``scheduled``.
                sequence = queue._sequence
                queue._sequence = sequence + 1
                queue._reserved += 1
                event = Event(deadline, priority, sequence, callback, args, label)
                timers = self._buckets.get(bucket)
                if timers is None:
                    self._buckets[bucket] = [event]
                    # The tick, posted: ``now < tick_time <= deadline`` is
                    # inside the horizon, and nobody cancels a tick.
                    sequence = queue._sequence
                    queue._sequence = sequence + 1
                    heap = queue._heap
                    heappush(
                        heap,
                        (
                            tick_time, PRIORITY_TIMER_TICK, sequence,
                            self._tick, (bucket,), "timer:tick", None,
                        ),
                    )
                    if len(heap) > queue._peak_pending:
                        queue._peak_pending = len(heap)
                else:
                    timers.append(event)
                return event
        self.timers_direct += 1
        return simulator.schedule_in(
            delay, callback, *args, priority=priority, label=label
        )

    def _tick(self, bucket: int) -> None:
        """Promote a bucket's survivors into the heap at their exact deadlines,
        each under the sequence number it reserved when it was armed."""
        queue = self._simulator._queue
        heap = queue._heap
        cancelled = 0
        promoted = 0
        for e in self._buckets.pop(bucket):
            if e.cancelled:
                cancelled += 1
            else:
                promoted += 1
                heappush(heap, (e.time, e.priority, e.sequence, e.callback, e.args, e.label, e))
                if len(heap) > queue._peak_pending:
                    queue._peak_pending = len(heap)
        queue._reserved -= promoted
        self.timers_cancelled += cancelled
        self.timers_promoted += promoted

    def pending_timers(self) -> int:
        """Timers currently parked in wheel buckets (incl. lazily cancelled)."""
        return sum(len(timers) for timers in self._buckets.values())

    def stats(self) -> Dict[str, Any]:
        """Wheel counters (for the ledger and tests)."""
        return {
            "granularity": self._granularity,
            "timers_armed": self.timers_armed,
            "timers_wheeled": self.timers_wheeled,
            "timers_direct": self.timers_direct,
            "timers_cancelled": self.timers_cancelled,
            "timers_promoted": self.timers_promoted,
            "pending_buckets": len(self._buckets),
            "pending_timers": self.pending_timers(),
        }
