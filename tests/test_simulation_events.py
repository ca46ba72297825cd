"""Unit tests for the event queue primitives."""

from __future__ import annotations

from functools import partial

import pytest

from repro.simulation import SchedulingError, SimulationStateError, Simulator
from repro.simulation.events import Event, EventQueue
from repro.simulation.timers import PRIORITY_TIMER_TICK, TimerService


def test_push_and_pop_in_time_order():
    queue = EventQueue()
    fired = []
    queue.push(2.0, lambda: fired.append("b"))
    queue.push(1.0, lambda: fired.append("a"))
    queue.push(3.0, lambda: fired.append("c"))
    while queue:
        event = queue.pop()
        event.callback(*event.args)
    assert fired == ["a", "b", "c"]


def test_same_time_orders_by_priority_then_fifo():
    queue = EventQueue()
    order = []
    queue.push(1.0, lambda: order.append("normal-1"), priority=0)
    queue.push(1.0, lambda: order.append("control"), priority=-10)
    queue.push(1.0, lambda: order.append("normal-2"), priority=0)
    queue.push(1.0, lambda: order.append("late"), priority=10)
    while queue:
        event = queue.pop()
        event.callback()
    assert order == ["control", "normal-1", "normal-2", "late"]


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    handle = queue.push(1.0, lambda: fired.append("cancelled"))
    queue.push(2.0, lambda: fired.append("kept"))
    handle.cancel()
    events = []
    while queue:
        event = queue.pop()
        if event is not None:
            events.append(event)
            event.callback()
    assert fired == ["kept"]
    assert queue.stats["cancelled_skipped"] == 1


def test_pop_on_empty_returns_none():
    queue = EventQueue()
    assert queue.pop() is None
    assert not queue


def test_handle_reports_time_and_label():
    queue = EventQueue()
    handle = queue.push(4.5, lambda: None, label="tick")
    assert handle.time == 4.5
    assert handle.label == "tick"
    assert not handle.cancelled
    handle.cancel()
    assert handle.cancelled


def test_event_ordering_dataclass():
    early = Event(time=1.0, priority=0, sequence=0, callback=lambda: None)
    late = Event(time=2.0, priority=0, sequence=1, callback=lambda: None)
    assert early < late


def test_args_are_passed_to_callback():
    queue = EventQueue()
    seen = []
    queue.push(1.0, lambda a, b: seen.append((a, b)), args=(1, "x"))
    event = queue.pop()
    event.callback(*event.args)
    assert seen == [(1, "x")]


def test_stats_counters():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.pop()
    stats = queue.stats
    assert stats["scheduled"] == 2
    assert stats["fired"] == 1
    assert stats["pending"] == 1


# ----------------------------------------------------------------------
# The four scheduling paths stay in step
# ----------------------------------------------------------------------
# ``Simulator.schedule_in`` inlines ``EventQueue.push``'s body and
# ``TimerService.arm`` falls back to it, so every way of scheduling is driven
# through one script and compared with ``push`` itself.


def _scheduler(simulator, path):
    """``schedule(delay, callback, *args, priority=, label=)`` for one path."""
    if path == "push":
        return lambda delay, callback, *args, **options: simulator._queue.push(
            simulator.now + delay, callback, args, **options
        )
    if path == "schedule":
        return lambda delay, callback, *args, **options: simulator.schedule(
            simulator.now + delay, callback, *args, **options
        )
    if path == "schedule_in":
        return simulator.schedule_in
    # One bucket spans the whole test, so every arm takes the direct path.
    return TimerService(simulator, granularity=1e6).arm


def _drive(path, prioritised=True):
    """Run the script through ``path``; without ``prioritised`` every event
    takes the default priority (``schedule`` takes no other)."""
    simulator = Simulator(seed=0, start_time=1.0)
    schedule = _scheduler(simulator, path)
    fired = []
    script = [(0.5, 0, "a"), (0.25, -10, "b"), (0.5, 0, "c"), (0.0, 10, None), (2.0, 0, "e")]
    events = [
        schedule(delay, fired.append, label, label=label, **({"priority": priority} if prioritised else {}))
        for delay, priority, label in script
    ]
    events[2].cancel()
    scheduled = [
        (type(e), e.time, e.priority, e.sequence, e.label, e.cancelled, e.args) for e in events
    ]
    before = simulator.queue_stats()
    simulator.run_until(10.0)
    return scheduled, before, fired, simulator.queue_stats()


@pytest.mark.parametrize("path", ["schedule", "schedule_in", "arm"])
def test_every_scheduling_path_matches_event_queue_push(path):
    scheduled, before, fired, after = _drive(path, prioritised=path != "schedule")
    assert [row[0] for row in scheduled] == [Event] * 5
    assert [row[3] for row in scheduled] == [0, 1, 2, 3, 4]
    assert before["scheduled"] == before["peak_pending"] == 5
    assert fired == [None, "b", "a", "e"]
    assert after["cancelled_skipped"] == 1
    assert (scheduled, before, fired, after) == _drive("push", prioritised=path != "schedule")


@pytest.mark.parametrize("path", ["schedule", "schedule_in", "arm"])
@pytest.mark.parametrize(
    "delay, error",
    [
        (-1.0, SchedulingError),
        (float("nan"), SchedulingError),
        (float("inf"), SchedulingError),
        (float("-inf"), SchedulingError),
    ],
)
def test_every_scheduling_path_refuses_bad_times(path, delay, error):
    simulator = Simulator(seed=0, start_time=1.0)
    schedule = _scheduler(simulator, path)
    with pytest.raises(error):
        schedule(delay, lambda: None)
    # A refused call consumed nothing: the next event is still number 0.
    assert simulator.queue_stats()["scheduled"] == 0
    assert schedule(0.0, lambda: None).sequence == 0


@pytest.mark.parametrize("path", ["schedule", "schedule_in", "arm"])
@pytest.mark.parametrize("delay", [0.5, -1.0, float("nan")])
def test_every_scheduling_path_refuses_a_stopped_simulator(path, delay):
    simulator = Simulator(seed=0, start_time=1.0)
    schedule = _scheduler(simulator, path)
    schedule(0.5, lambda: None)
    simulator.stop()
    # A negative delay is the one complaint that outranks "stopped", and only
    # where a delay is what the caller passed.
    negative_first = delay < 0.0 and path != "schedule"
    with pytest.raises(SchedulingError if negative_first else SimulationStateError):
        schedule(delay, lambda: None)
    assert simulator.queue_stats()["scheduled"] == 1
    assert simulator.pending_events == 0


# ----------------------------------------------------------------------
# ``post_in``: the same heap entry, without a handle
# ----------------------------------------------------------------------
# ``post_in`` is ``schedule_in`` without the ``Event``, for callers that never
# cancel.  Nothing may tell the two apart but the missing return value: the
# same sequence numbers, the same firing order, the same trace and the same
# queue counters.


def _pending_entries(simulator):
    """``(time, priority, sequence, args, label)`` of each entry, in heap order."""
    return sorted(entry[:3] + entry[4:6] for entry in simulator._queue._heap)


def _drive_uncancelled(path):
    simulator = Simulator(seed=0, start_time=1.0)
    schedule = simulator.post_in if path == "post_in" else _scheduler(simulator, path)
    fired, traced = [], []
    simulator.add_trace_hook(lambda time, label: traced.append((time, label)))
    script = [
        (0.5, 0, "a"),
        (0.25, -10, "b"),
        (0.5, 0, "c"),
        (0.0, 10, None),
        (2.0, 0, "e"),
        (0.5, 0, "f"),
    ]
    for delay, priority, label in script:
        schedule(delay, fired.append, label, priority=priority, label=label)
    entries = _pending_entries(simulator)
    before = simulator.queue_stats()
    simulator.run_until(10.0)
    return entries, before, fired, traced, simulator.queue_stats()


@pytest.mark.parametrize("path", ["push", "schedule_in"])
def test_post_in_matches_the_paths_that_return_a_handle(path):
    posted = _drive_uncancelled("post_in")
    entries, before, fired, traced, after = posted
    assert [entry[2] for entry in entries] == [3, 1, 0, 2, 5, 4]
    assert before["scheduled"] == before["peak_pending"] == 6
    assert fired == [None, "b", "a", "c", "f", "e"]
    assert traced == [(1.0, None), (1.25, "b"), (1.5, "a"), (1.5, "c"), (1.5, "f"), (3.0, "e")]
    assert after["fired"] == 6 and after["pending"] == 0
    assert posted == _drive_uncancelled(path)


@pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_post_in_refuses_bad_times_as_schedule_in_does(delay):
    errors = []
    for path in ("post_in", "schedule_in"):
        simulator = Simulator(seed=0, start_time=1.0)
        with pytest.raises(SchedulingError) as refused:
            getattr(simulator, path)(delay, lambda: None)
        errors.append(str(refused.value))
        # A refused call consumed nothing: the next event is still number 0.
        assert simulator.queue_stats()["scheduled"] == 0
        assert simulator.schedule_in(0.0, lambda: None).sequence == 0
    assert errors[0] == errors[1]


@pytest.mark.parametrize("delay", [0.5, -1.0, float("nan")])
def test_post_in_refuses_a_stopped_simulator_as_schedule_in_does(delay):
    errors = []
    for path in ("post_in", "schedule_in"):
        simulator = Simulator(seed=0, start_time=1.0)
        simulator.post_in(0.5, lambda: None)
        simulator.stop()
        with pytest.raises((SchedulingError, SimulationStateError)) as refused:
            getattr(simulator, path)(delay, lambda: None)
        errors.append((type(refused.value), str(refused.value)))
        assert simulator.queue_stats()["scheduled"] == 1
        assert simulator.pending_events == 0
    assert errors[0] == errors[1]
    assert errors[0][0] is (SchedulingError if delay < 0.0 else SimulationStateError)


def test_pop_returns_a_posted_entry_as_an_event():
    simulator = Simulator(seed=0)
    seen = []
    simulator.post_in(2.0, lambda a, b: seen.append((a, b)), 1, "x", priority=-10, label="hop")
    event = simulator._queue.pop()
    assert (type(event), event.time, event.priority, event.sequence, event.label) == (
        Event,
        2.0,
        -10,
        0,
        "hop",
    )
    assert not event.cancelled
    event.callback(*event.args)
    assert seen == [(1, "x")]
    assert simulator._queue.pop() is None


# ----------------------------------------------------------------------
# The wheel's arm: a reservation and ``push``, written out
# ----------------------------------------------------------------------
# ``TimerService.arm`` reserves a wheeled timer's sequence number and posts
# its bucket's tick with the queue's bodies written out, as ``schedule_in``
# writes out ``push``.  The reference is the arm as it was built from the
# queue's own steps: a reservation (counted in ``_reserved``, never in
# ``scheduled``) and the tick through ``EventQueue.push``.


def _reference_arm(service, delay, callback, *args, priority=0, label=None):
    simulator = service._simulator
    deadline = simulator.now + delay
    bucket = int(deadline // service.granularity)
    tick_time = bucket * service.granularity
    service.timers_armed += 1
    if not simulator.now < tick_time <= deadline:
        service.timers_direct += 1
        return simulator.schedule_in(delay, callback, *args, priority=priority, label=label)
    service.timers_wheeled += 1
    queue = simulator._queue
    sequence = queue._sequence
    queue._sequence += 1
    queue._reserved += 1
    event = Event(deadline, priority, sequence, callback, args, label)
    timers = service._buckets.get(bucket)
    if timers is None:
        service._buckets[bucket] = [event]
        queue.push(tick_time, service._tick, (bucket,), priority=PRIORITY_TIMER_TICK, label="timer:tick")
    else:
        timers.append(event)
    return event


def _drive_wheel(path):
    simulator = Simulator(seed=0, start_time=1.0)
    service = TimerService(simulator, granularity=0.1)
    arm = service.arm if path == "arm" else partial(_reference_arm, service)
    fired, traced, states = [], [], []
    simulator.add_trace_hook(lambda time, label: traced.append((time, label)))
    # Two arming instants; per instant one direct arm (inside the current
    # bucket), two timers sharing a bucket and one alone, priorities tied
    # and not, with an ordinary event between every two arms.
    script = [(0.01, 0, "direct"), (0.25, 0, "a"), (0.28, -10, "b"), (0.26, 10, "c"), (0.45, 0, "d")]
    timers = []
    for until in (1.0, 1.3):
        simulator.run_until(until)
        for delay, priority, label in script:
            timers.append(arm(delay, fired.append, label, priority=priority, label=label))
            states.append((simulator.queue_stats(), simulator.pending_events))
            simulator.post_in(0.2, fired.append, "hop", label="hop")
        timers[-3].cancel()
    armed = [(timer.time, timer.priority, timer.sequence, timer.label) for timer in timers]
    entries = _pending_entries(simulator)
    simulator.run_until(5.0)
    after = simulator.queue_stats(), simulator.pending_events, service.stats()
    return armed, entries, states, fired, traced, after


def test_the_wheels_inlined_arm_matches_a_reservation_plus_schedule():
    inlined = _drive_wheel("arm")
    armed, entries, states, fired, traced, after = inlined
    # Every arm but the direct ones was wheeled into four buckets, and each
    # new bucket's tick took the sequence number after its first timer's.
    # The first bucket ticked before the second instant's arms.
    ticks = [entry for entry in entries if entry[4] == "timer:tick"]
    assert len(ticks) == 3 and all(entry[1] == PRIORITY_TIMER_TICK for entry in ticks)
    assert {entry[2] - 1 for entry in ticks} <= {sequence for _, _, sequence, _ in armed}
    assert after[2]["timers_wheeled"] == 8 and after[2]["timers_direct"] == 2
    assert after[2]["timers_cancelled"] == 2 and after[0]["pending"] == after[1] == 0
    assert fired.count("hop") == 10 and "b" not in fired
    assert inlined == _drive_wheel("reference")
