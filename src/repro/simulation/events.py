"""Event primitives for the discrete-event simulation kernel.

The kernel is callback based: an :class:`Event` bundles a firing time, a
priority, a callback and its arguments.  Events are totally ordered by
``(time, priority, sequence)`` where the sequence number is a monotonically
increasing tiebreaker assigned by the :class:`EventQueue`.  This makes the
execution order deterministic for a fixed seed, which in turn makes every
experiment in this repository reproducible.

Performance notes: an event *is* its heap entry, the tuple
``(time, priority, sequence, callback, args, label, handle)``, so every heap
comparison is a C-level tuple comparison (the sequence is unique, so it never
reaches the callback) and the run loop fires what the entry holds.  ``handle``
is the slotted :class:`Event` that ``push`` and ``Simulator.schedule_in``
return to a caller that may cancel; ``Simulator.post_in`` leaves it ``None``
for the hops nobody cancels, and allocates only the tuple.  An entry is
skipped when popped only if its handle is cancelled.

Deadlines (``Simulator.deadline_in``) are parked, not heaped: one FIFO per
distinct delay, whose deadlines are monotone because the clock never runs
backwards.  Only a FIFO's front has a heap entry, carrying the front's own
``(time, priority, sequence, ..., label, handle)`` with :func:`_deadline_due`
as its callback, so it sorts exactly where ``schedule_in`` would have put it.
Whenever that entry leaves the heap — fired, or popped as a cancelled corpse —
the queue drops the cancelled deadlines parked behind it and heaps the next
live one (:meth:`EventQueue._advance_fifo`).  A timeout that is cancelled
before it is reached, which is nearly every one, never touches the heap.
"""

from __future__ import annotations

import weakref
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Event", "EventQueue"]

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for control-plane events (fire before data-plane events at the
#: same timestamp, e.g. a topology change should be visible to requests
#: issued at the same instant).
PRIORITY_CONTROL = -10
#: Priority for bookkeeping events that must observe everything else that
#: happened at the same timestamp (metric flushes, report sampling).
PRIORITY_LATE = 10


class Event:
    """The handle ``schedule`` returns for a scheduled callback.

    Callers keep the event to :meth:`cancel` it or to read its ``time``,
    ``cancelled`` flag and ``label``; the other attributes are the kernel's.

    Attributes
    ----------
    time:
        Simulation time (seconds) at which the callback fires.
    priority:
        Secondary ordering key; lower fires first at equal ``time``.
    sequence:
        Tiebreaker assigned by the queue; guarantees FIFO order for events
        scheduled at identical ``(time, priority)``.
    callback:
        Callable invoked as ``callback(*args)`` when the event fires.
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args", "cancelled", "label")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., None],
        args: tuple = (),
        label: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        A no-op once the event has fired.
        """
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.sequence) < (
            other.time,
            other.priority,
            other.sequence,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"Event(time={self.time:.6f}, priority={self.priority}, "
            f"sequence={self.sequence}, {state}, label={self.label!r})"
        )


def _deadline_due(queue_ref: "weakref.ref[EventQueue]", delay: float, event: Event) -> None:
    """The callback of a deadline's heap entry: heap the next live deadline of
    the same ``delay``, then fire this one.

    The run loop and the queue compare callbacks with this function by
    identity.  The queue is reached through a weak reference so that a heaped
    entry does not hold its own heap in a reference cycle.
    """
    queue_ref()._advance_fifo(delay)
    event.callback(*event.args)


class EventQueue:
    """Priority queue of :class:`Event` objects.

    A thin wrapper around :mod:`heapq` that assigns sequence numbers, skips
    cancelled events on pop, parks deadlines in per-delay FIFOs and tracks
    basic statistics used by the kernel's introspection helpers.
    """

    def __init__(self) -> None:
        # Heap of (time, priority, sequence, callback, args, label, handle)
        # entries; see module note.
        self._heap: list[tuple] = []
        # delay -> the deadlines parked behind that delay's heaped front.
        self._deadlines: dict[float, deque[Event]] = {}
        self._ref = weakref.ref(self)
        self._sequence = 0
        # Sequences the timer wheel reserved and has not pushed; everything
        # else numbered was scheduled, so ``scheduled`` is not counted.
        self._reserved = 0
        self._fired = 0
        self._cancelled_skipped = 0
        self._deadlines_dropped = 0
        self._peak_pending = 0

    def __len__(self) -> int:
        return len(self._heap) + sum(map(len, self._deadlines.values()))

    def __bool__(self) -> bool:
        # Every parked deadline sits behind a heaped front.
        return bool(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at ``time`` and return the event."""
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, args, label)
        heappush(self._heap, (time, priority, sequence, callback, args, label, event))
        if len(self._heap) > self._peak_pending:
            self._peak_pending = len(self._heap)
        return event

    def _advance_fifo(self, delay: float) -> None:
        """The heaped front of ``delay``'s FIFO left the heap: drop the
        cancelled deadlines parked behind it and heap the next live one under
        its own sequence number, or retire the emptied FIFO.
        """
        fifo = self._deadlines.get(delay)
        if fifo is None:  # cleared by ``Simulator.stop()``
            return
        while fifo:
            event = fifo.popleft()
            if event.cancelled:
                self._deadlines_dropped += 1
                continue
            self._heap_front(delay, event)
            return
        del self._deadlines[delay]

    def _heap_front(self, delay: float, event: Event) -> None:
        """Heap ``event`` as the front of ``delay``'s FIFO, under its own
        time, priority, sequence and label."""
        heap = self._heap
        e = event
        args = (self._ref, delay, e)
        heappush(heap, (e.time, e.priority, e.sequence, _deadline_due, args, e.label, e))
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)

    def _pop_entry(self) -> Optional[tuple]:
        """Pop the next live heap entry (``Simulator.step``'s probe).

        A live deadline's FIFO advances when its callback runs.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            handle = entry[6]
            if handle is not None and handle.cancelled:
                self._cancelled_skipped += 1
                if entry[3] is _deadline_due:
                    self._advance_fifo(entry[4][1])
                continue
            self._fired += 1
            return entry
        return None

    def pop(self) -> Optional[Event]:
        """Pop the next live (non-cancelled) event, or ``None`` if empty.

        A posted entry, which has no handle, comes back as a new :class:`Event`;
        a deadline comes back as the :class:`Event` ``deadline_in`` returned,
        and its FIFO advances as if it had fired.
        """
        entry = self._pop_entry()
        if entry is None:
            return None
        if entry[6] is None:
            return Event(*entry[:6])
        if entry[3] is _deadline_due:
            self._advance_fifo(entry[4][1])
        return entry[6]

    def clear(self) -> None:
        """Drop all pending events, parked deadlines included."""
        self._heap.clear()
        self._deadlines.clear()

    @property
    def stats(self) -> dict[str, Any]:
        """Counters describing queue activity (for debugging and tests).

        Outside a run, ``scheduled == fired + cancelled_skipped +
        deadlines_dropped + pending`` (until ``clear`` drops what was
        pending; ``Simulator.run_until`` adds its ``fired`` when it returns).
        ``pending`` counts parked deadlines; ``peak_pending`` is the heap's
        own high-water mark.
        """
        return {
            "scheduled": self._sequence - self._reserved,
            "fired": self._fired,
            "cancelled_skipped": self._cancelled_skipped,
            "deadlines_dropped": self._deadlines_dropped,
            "pending": len(self),
            "peak_pending": self._peak_pending,
        }
