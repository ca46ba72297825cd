"""Event primitives for the discrete-event simulation kernel.

The kernel is callback based: an :class:`Event` bundles a firing time, a
priority, a callback and its arguments.  Events are totally ordered by
``(time, priority, sequence)`` where the sequence number is a monotonically
increasing tiebreaker assigned by the :class:`EventQueue`.  This makes the
execution order deterministic for a fixed seed, which in turn makes every
experiment in this repository reproducible.

Performance notes: the heap stores ``(time, priority, sequence, event)``
tuples rather than the events themselves, so every ``heappush``/``heappop``
comparison is a C-level tuple comparison instead of a generated dataclass
``__lt__`` (which rebuilds two key tuples per comparison).  :class:`Event`
uses ``__slots__`` — the kernel allocates one per scheduled callback, which
makes it the single most-allocated object in any simulation.
"""

from __future__ import annotations

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
    """A single scheduled callback, and the handle ``schedule`` returns for it.

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
        cancelled: bool = False,
        label: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
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


class EventQueue:
    """Priority queue of :class:`Event` objects.

    A thin wrapper around :mod:`heapq` that assigns sequence numbers, skips
    cancelled events on pop and tracks basic statistics used by the kernel's
    introspection helpers.
    """

    def __init__(self) -> None:
        # Heap of (time, priority, sequence, event) tuples; see module note.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._scheduled = 0
        self._fired = 0
        self._cancelled_skipped = 0
        self._peak_pending = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
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
        event = Event(time, priority, sequence, callback, args, False, label)
        heappush(self._heap, (time, priority, sequence, event))
        self._scheduled += 1
        if len(self._heap) > self._peak_pending:
            self._peak_pending = len(self._heap)
        return event

    def reserve_sequence(self) -> int:
        """Allocate a sequence number without pushing an event.

        Used by the timer wheel (:mod:`repro.simulation.timers`): a timer
        reserves its place in the total order at arm time, so that if it
        survives to promotion it sorts exactly as if it had been pushed
        then.  A reserved sequence that is never pushed is simply a hole in
        the numbering — order is what matters, not density.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        return sequence

    def push_reserved(self, event: Event) -> None:
        """Heap an event carrying a pre-reserved sequence (timer promotion)."""
        heappush(self._heap, (event.time, event.priority, event.sequence, event))
        self._scheduled += 1
        if len(self._heap) > self._peak_pending:
            self._peak_pending = len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None``."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3].cancelled:
                heappop(heap)
                self._cancelled_skipped += 1
                continue
            return head[0]
        return None

    def pop(self) -> Optional[Event]:
        """Pop the next live (non-cancelled) event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event.cancelled:
                self._cancelled_skipped += 1
                continue
            self._fired += 1
            return event
        return None

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()

    @property
    def stats(self) -> dict[str, Any]:
        """Counters describing queue activity (for debugging and tests)."""
        return {
            "scheduled": self._scheduled,
            "fired": self._fired,
            "cancelled_skipped": self._cancelled_skipped,
            "pending": len(self._heap),
            "peak_pending": self._peak_pending,
        }
