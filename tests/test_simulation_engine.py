"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.simulation import SchedulingError, SimulationStateError, Simulator


def test_clock_starts_at_zero():
    simulator = Simulator(seed=0)
    assert simulator.now == 0.0
    assert simulator.elapsed == 0.0


def test_schedule_and_run_until_advances_clock():
    simulator = Simulator(seed=0)
    fired = []
    simulator.schedule(5.0, lambda: fired.append(simulator.now))
    executed = simulator.run_until(10.0)
    assert executed == 1
    assert fired == [5.0]
    assert simulator.now == 10.0


def test_run_until_does_not_execute_later_events():
    simulator = Simulator(seed=0)
    fired = []
    simulator.schedule(5.0, lambda: fired.append("early"))
    simulator.schedule(15.0, lambda: fired.append("late"))
    simulator.run_until(10.0)
    assert fired == ["early"]
    simulator.run_until(20.0)
    assert fired == ["early", "late"]


def test_schedule_in_uses_relative_delay():
    simulator = Simulator(seed=0)
    times = []
    simulator.schedule_in(2.0, lambda: times.append(simulator.now))
    simulator.run_until(3.0)
    simulator.schedule_in(2.0, lambda: times.append(simulator.now))
    simulator.run_until(6.0)
    assert times == [2.0, 5.0]


def test_scheduling_in_the_past_raises():
    simulator = Simulator(seed=0)
    simulator.run_until(10.0)
    with pytest.raises(SchedulingError):
        simulator.schedule(5.0, lambda: None)
    with pytest.raises(SchedulingError):
        simulator.schedule_in(-1.0, lambda: None)


def test_non_finite_times_rejected():
    simulator = Simulator(seed=0)
    with pytest.raises(SchedulingError):
        simulator.schedule(float("nan"), lambda: None)
    with pytest.raises(SchedulingError):
        simulator.schedule(float("inf"), lambda: None)


def test_run_until_backwards_raises():
    simulator = Simulator(seed=0)
    simulator.run_until(10.0)
    with pytest.raises(SchedulingError):
        simulator.run_until(5.0)


def test_events_scheduled_during_execution_run_in_order():
    simulator = Simulator(seed=0)
    order = []

    def first():
        order.append("first")
        simulator.schedule_in(1.0, lambda: order.append("nested"))

    simulator.schedule(1.0, first)
    simulator.schedule(3.0, lambda: order.append("third"))
    simulator.run_until(10.0)
    assert order == ["first", "nested", "third"]


def test_periodic_task_fires_repeatedly_and_stops():
    simulator = Simulator(seed=0)
    ticks = []
    task = simulator.call_every(1.0, lambda: ticks.append(simulator.now))
    simulator.run_until(5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    task.stop()
    simulator.run_until(10.0)
    assert len(ticks) == 5


def test_periodic_task_callback_returning_false_stops_it():
    simulator = Simulator(seed=0)
    count = []

    def tick():
        count.append(1)
        return len(count) < 3

    simulator.call_every(1.0, tick)
    simulator.run_until(20.0)
    assert len(count) == 3


def test_a_periodic_callback_that_stops_the_simulator_ends_its_task_quietly():
    simulator = Simulator(seed=0)
    ticks = []

    def tick():
        ticks.append(simulator.now)
        if len(ticks) == 3:
            simulator.stop()

    simulator.call_every(1.0, tick)
    assert simulator.run_until(10.0) == 3
    assert ticks == [1.0, 2.0, 3.0]
    assert simulator.pending_events == 0
    # Only the task's own reschedule is let off: a direct one is refused.
    with pytest.raises(SimulationStateError, match="stopped simulator"):
        simulator.schedule_in(1.0, lambda: None)


def test_periodic_task_rejects_non_positive_interval():
    simulator = Simulator(seed=0)
    with pytest.raises(SchedulingError):
        simulator.call_every(0.0, lambda: None)


def test_deterministic_random_streams_with_same_seed():
    values_a = Simulator(seed=42).streams.stream("x").random(5).tolist()
    values_b = Simulator(seed=42).streams.stream("x").random(5).tolist()
    values_c = Simulator(seed=43).streams.stream("x").random(5).tolist()
    assert values_a == values_b
    assert values_a != values_c


def test_stop_prevents_further_scheduling():
    simulator = Simulator(seed=0)
    simulator.schedule(1.0, lambda: None)
    simulator.stop()
    with pytest.raises(SimulationStateError):
        simulator.schedule(2.0, lambda: None)
    assert simulator.pending_events == 0


def test_events_processed_counter():
    simulator = Simulator(seed=0)
    for i in range(5):
        simulator.schedule(float(i + 1), lambda: None)
    simulator.run_until(10.0)
    assert simulator.events_processed == 5


def test_trace_hook_receives_labels():
    simulator = Simulator(seed=0)
    seen = []
    simulator.add_trace_hook(lambda time, label: seen.append((time, label)))
    simulator.schedule(1.0, lambda: None, label="hello")
    simulator.run_until(2.0)
    assert seen == [(1.0, "hello")]


def test_run_until_empty_executes_everything():
    simulator = Simulator(seed=0)
    fired = []
    for i in range(3):
        simulator.schedule(float(i + 1), lambda i=i: fired.append(i))
    executed = simulator.run_until_empty()
    assert executed == 3
    assert fired == [0, 1, 2]


def test_max_events_limit_respected():
    simulator = Simulator(seed=0)
    for i in range(10):
        simulator.schedule(float(i + 1), lambda: None)
    executed = simulator.run_until(100.0, max_events=4)
    assert executed == 4
    assert simulator.pending_events == 6


def _traced_ten_events():
    simulator = Simulator(seed=0)
    fired = []
    simulator.add_trace_hook(lambda time, label: fired.append((time, label)))
    for i in range(10):
        simulator.schedule(float(i + 1), lambda: None, label=f"e{i}")
    return simulator, fired


@pytest.mark.parametrize("resume", ["run_until", "step"])
def test_a_max_events_stop_leaves_the_clock_at_the_last_fired_event(resume):
    unbounded, expected = _traced_ten_events()
    unbounded.run_until(200.0)

    simulator, fired = _traced_ten_events()
    assert simulator.run_until(100.0, max_events=4) == 4
    # The budget ran out before the queue did: the clock stays where the
    # fourth event left it, so the six still pending are not in the past.
    assert simulator.now == 4.0
    assert simulator.pending_events == 6
    if resume == "run_until":
        assert simulator.run_until(200.0) == 6
        assert simulator.now == 200.0
    else:
        while simulator.step():
            pass
        assert simulator.now == 10.0
    assert fired == expected
    assert simulator.events_processed == 10


def _mixed_script(simulator):
    """Posted and handled events, with cancels made before and during the run."""
    fired, traced = [], []
    simulator.add_trace_hook(lambda time, label: traced.append((time, label)))
    handles = {}

    def fire(name):
        fired.append(name)

    def spawn(name):
        fired.append(name)
        handles["h10"].cancel()
        simulator.post_in(0.0, fire, f"{name}/posted", label=f"{name}/posted")
        handles[f"{name}/handled"] = simulator.schedule_in(
            0.0, fire, f"{name}/handled", priority=-10, label=f"{name}/handled"
        )

    for i in range(12):
        name = f"p{i}" if i % 2 else f"h{i}"
        callback = spawn if i == 4 else fire
        delay, priority = float(i % 4), (0, -10, 10)[i % 3]
        if i % 2:
            simulator.post_in(delay, callback, name, priority=priority, label=name)
        else:
            handles[name] = simulator.schedule_in(
                delay, callback, name, priority=priority, label=name
            )
    handles["h0"].cancel()
    return fired, traced


@pytest.mark.parametrize("drive", ["step", "run_until_empty"])
def test_posted_and_handled_events_fire_alike_through_every_loop(drive):
    simulator = Simulator(seed=0)
    expected = _mixed_script(simulator)
    simulator.run_until(100.0)
    expected_stats = simulator.queue_stats()
    fired, traced = expected
    assert fired == [label for _, label in traced]
    assert traced == [
        (0.0, "h4"),
        (0.0, "h4/handled"),
        (0.0, "h4/posted"),
        (0.0, "h8"),
        (1.0, "p1"),
        (1.0, "p9"),
        (1.0, "p5"),
        (2.0, "h6"),
        (2.0, "h2"),
        (3.0, "p7"),
        (3.0, "p3"),
        (3.0, "p11"),
    ]
    assert expected_stats == {
        "scheduled": 14,
        "fired": 12,
        "cancelled_skipped": 2,
        "deadlines_dropped": 0,
        "pending": 0,
        "peak_pending": 13,
    }

    other = Simulator(seed=0)
    trace = _mixed_script(other)
    if drive == "step":
        while other.step():
            pass
    else:
        other.run_until_empty()
    assert trace == expected
    assert other.queue_stats() == expected_stats


@pytest.mark.parametrize("end_time", [float("nan"), float("inf")])
def test_a_non_finite_end_time_is_refused_before_anything_fires(end_time):
    simulator = Simulator(seed=0)
    ticks = []
    simulator.call_every(1.0, lambda: ticks.append(simulator.now))
    # A periodic task never lets the queue drain, so without the refusal
    # only the budget would end this call.
    with pytest.raises(SchedulingError, match=f"non-finite end time {end_time}"):
        simulator.run_until(end_time, max_events=100)
    assert ticks == [] and simulator.now == 0.0
    assert simulator.run_until(3.5) == 3


def test_a_max_events_stop_at_the_last_event_still_reaches_end_time():
    simulator, fired = _traced_ten_events()
    assert simulator.run_until(100.0, max_events=10) == 10
    assert simulator.now == 100.0
    simulator.schedule(150.0, lambda: None)
    # Only later events are pending when the budget runs out.
    assert simulator.run_until(120.0, max_events=0) == 0
    assert simulator.now == 120.0
