"""``Simulator.deadline_in``: a parked deadline is invisible except in heap size.

A deadline armed with ``deadline_in`` waits in a FIFO of its delay and is
heaped only as that FIFO's next live deadline, under the sequence number it
took when it was armed (PERFORMANCE.md rule 19).  Against the same script
armed with ``schedule_in``:

* the firing log, the trace, ``events_processed`` and ``scheduled`` are equal
  however the kernel is driven: one ``run_until``, chunked ``run_until``,
  ``step()``, ``run_until_empty()`` or ``EventQueue.pop()``;
* ``scheduled == fired + cancelled_skipped + deadlines_dropped + pending``
  whenever no run is in progress;
* the heap's high-water mark is lower.

The script is the lattice script of ``tests/test_simulation_timers.py`` with
ties made on purpose: cancels and ordinary events land exactly on a deadline
and are scheduled after it was armed, so a front heaped under a fresh
sequence number fires out of order; and FIFO fronts are cancelled with live
deadlines parked behind them, so a path that lets a front go without
advancing its FIFO loses deadlines.
"""

from __future__ import annotations

import random

import pytest

from repro.runner import Simulation, SimulationConfig
from repro.simulation import SchedulingError, SimulationStateError, Simulator

DELAYS = (0.0, 0.1, 0.25)
LATTICE = 0.05
END = 5.0
DRIVES = ("run_until", "chunked", "step", "run_until_empty", "pop")


def _random_script(seed: int, timers: int = 40, background: int = 20):
    """Deadline arms (with cancels and ties) and ordinary events."""
    rng = random.Random(seed)
    arms = []
    for index in range(timers):
        arm_time = rng.randrange(0, 40) * LATTICE
        delay = rng.choice(DELAYS)
        roll = rng.random()
        if roll < 0.35:
            # Before the deadline (at it, for a zero delay).
            cancel_after = rng.randrange(0, max(1, round(delay / LATTICE))) * LATTICE
        elif roll < 0.5:
            cancel_after = delay  # a tie with the deadline, scheduled after it
        elif roll < 0.65:
            cancel_after = delay + rng.randrange(1, 4) * LATTICE  # a no-op by then
        else:
            cancel_after = None
        tie = rng.random() < 0.3  # an ordinary event exactly at the deadline
        arms.append((index, arm_time, delay, cancel_after, tie))
    ordinary = [(index, rng.randrange(0, 50) * LATTICE) for index in range(background)]
    return arms, ordinary


def _load(simulator: Simulator, seed: int, arm_with: str) -> list:
    """Put one script on ``simulator``; return the log its callbacks fill."""
    arm = getattr(simulator, arm_with)
    fired: list = []
    handles = {}

    def fire(name: str) -> None:
        fired.append((simulator.now, name))

    def do_arm(index, delay, cancel_after, tie) -> None:
        handles[index] = arm(delay, fire, f"t{index}", label=f"t{index}")
        if cancel_after is not None:
            simulator.schedule_in(cancel_after, handles[index].cancel)
        if tie:
            simulator.schedule_in(delay, fire, f"tie{index}", label=f"tie{index}")

    arms, ordinary = _random_script(seed)
    for index, arm_time, delay, cancel_after, tie in arms:
        simulator.schedule(arm_time, do_arm, index, delay, cancel_after, tie)
    for index, time in ordinary:
        simulator.schedule(time, fire, f"bg{index}", label=f"bg{index}")
    return fired


def _conserved(stats: dict) -> bool:
    return stats["scheduled"] == (
        stats["fired"]
        + stats["cancelled_skipped"]
        + stats["deadlines_dropped"]
        + stats["pending"]
    )


def _outcome(seed: int, arm_with: str, drive: str) -> dict:
    simulator = Simulator(seed=0)
    traced: list = []
    simulator.add_trace_hook(lambda time, label: traced.append((time, label)))
    fired = _load(simulator, seed, arm_with)
    checkpoints = []
    if drive == "run_until":
        simulator.run_until(END)
    elif drive == "chunked":
        # Edges on and between lattice points; conservation at each.
        for edge in range(1, 144):
            simulator.run_until(edge * 0.035)
            checkpoints.append(simulator.queue_stats())
    elif drive == "step":
        while simulator.step():
            pass
    elif drive == "run_until_empty":
        simulator.run_until_empty()
    else:
        queue = simulator._queue
        event = queue.pop()
        while event is not None:
            checkpoints.append(simulator.queue_stats())
            simulator.now = event.time
            event.callback(*event.args)
            event = queue.pop()
    stats = simulator.queue_stats()
    return {
        "fired": fired,
        "traced": traced,
        "events_processed": simulator.events_processed,
        "stats": stats,
        "checkpoints": checkpoints,
        "parked_fifos": len(simulator._queue._deadlines),
    }


@pytest.mark.parametrize("drive", DRIVES)
@pytest.mark.parametrize("seed", range(8))
def test_deadline_in_fires_as_schedule_in_through_every_loop(seed, drive):
    expected = _outcome(seed, "schedule_in", drive)
    actual = _outcome(seed, "deadline_in", drive)
    # Same firings at the same (bit-exact) times in the same order, ties
    # with cancels and ordinary events included.
    assert actual["fired"] == expected["fired"]
    assert actual["traced"] == expected["traced"]
    assert actual["events_processed"] == expected["events_processed"]
    assert actual["stats"]["scheduled"] == expected["stats"]["scheduled"]
    assert actual["stats"]["fired"] == expected["stats"]["fired"]
    # Every driver fires the one script the same way.
    assert actual["fired"] == _outcome(seed, "schedule_in", "run_until")["fired"]
    assert actual["stats"]["pending"] == 0 and actual["parked_fifos"] == 0


@pytest.mark.parametrize("drive", DRIVES)
def test_every_scheduled_event_is_fired_skipped_dropped_or_pending(drive):
    dropped = 0
    for seed in range(100):
        for arm_with in ("schedule_in", "deadline_in"):
            outcome = _outcome(seed, arm_with, drive)
            for stats in (*outcome["checkpoints"], outcome["stats"]):
                assert _conserved(stats), (seed, arm_with, stats)
            if arm_with == "schedule_in":
                assert outcome["stats"]["deadlines_dropped"] == 0
            dropped += outcome["stats"]["deadlines_dropped"]
    # The scripts do park and drop cancelled deadlines.
    assert dropped > 0


def test_the_heap_holds_fewer_entries_with_deadlines_parked():
    peaks = {"schedule_in": 0, "deadline_in": 0}
    for seed in range(8):
        for arm_with in peaks:
            peak = _outcome(seed, arm_with, "run_until")["stats"]["peak_pending"]
            peaks[arm_with] += peak
    assert peaks["deadline_in"] < peaks["schedule_in"]


@pytest.mark.parametrize("arm_with", ["schedule_in", "deadline_in"])
def test_timeouts_cancelled_on_answer_pile_up_only_on_the_heap(arm_with):
    # An operation every 10 ms arms a 1 s timeout and answers 5 ms later.
    simulator = Simulator(seed=0)
    arm = getattr(simulator, arm_with)

    def operation(index: int) -> None:
        simulator.schedule_in(0.005, arm(1.0, lambda: None).cancel)
        if index < 199:
            simulator.schedule((index + 1) * 0.01, operation, index + 1)

    simulator.schedule(0.0, operation, 0)
    simulator.run_until(10.0)
    stats = simulator.queue_stats()
    assert _conserved(stats) and stats["pending"] == 0
    if arm_with == "schedule_in":
        # A second's worth of corpses.
        assert stats["peak_pending"] > 95 and stats["cancelled_skipped"] == 200
    else:
        # The front, the next operation and one answer.
        assert stats["peak_pending"] == 3
        assert stats["cancelled_skipped"] <= 2
        assert stats["cancelled_skipped"] + stats["deadlines_dropped"] == 200


def test_a_heaped_front_keeps_the_sequence_it_was_armed_with():
    simulator = Simulator(seed=0)
    handles = []
    for arm_time in (0.0, 0.5, 0.6):
        simulator.schedule(
            arm_time, lambda: handles.append(simulator.deadline_in(1.0, lambda: None))
        )
    simulator.run_until(0.7)
    first, second, third = handles
    assert [entry[2] for entry in simulator._queue._heap] == [first.sequence]
    # Three deadlines pending, one heaped.
    assert simulator.pending_events == 3 and len(simulator._queue._heap) == 1
    simulator.run_until(1.2)
    assert [entry[2] for entry in simulator._queue._heap] == [second.sequence]
    assert simulator.pending_events == 2
    simulator.run_until(2.0)
    assert simulator.queue_stats()["fired"] == 6 and third.time == 1.6


def test_pop_returns_every_pending_deadline_of_a_fifo():
    simulator = Simulator(seed=0)
    seen = []
    handles = [
        simulator.deadline_in(0.5, seen.append, name, label=name) for name in "abcd"
    ]
    handles[1].cancel()
    queue = simulator._queue
    popped = []
    event = queue.pop()
    while event is not None:
        popped.append(event)
        event.callback(*event.args)
        event = queue.pop()
    assert popped == [handles[0], handles[2], handles[3]]
    assert seen == ["a", "c", "d"]
    assert [(e.time, e.label) for e in popped] == [(0.5, "a"), (0.5, "c"), (0.5, "d")]
    stats = simulator.queue_stats()
    assert (stats["fired"], stats["deadlines_dropped"], stats["pending"]) == (3, 1, 0)
    assert queue._deadlines == {}


@pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_deadline_in_refuses_bad_times_as_schedule_in_does(delay):
    errors = []
    for path in ("deadline_in", "schedule_in"):
        simulator = Simulator(seed=0, start_time=1.0)
        with pytest.raises(SchedulingError) as refused:
            getattr(simulator, path)(delay, lambda: None)
        errors.append(str(refused.value))
        # A refused call consumed nothing: the next event is still number 0.
        assert simulator.queue_stats()["scheduled"] == 0
        assert simulator.deadline_in(0.0, lambda: None).sequence == 0
    assert errors[0] == errors[1]


def test_stop_drops_parked_deadlines_and_refuses_new_ones():
    simulator = Simulator(seed=0)
    for _ in range(3):
        simulator.deadline_in(1.0, lambda: None)
    assert simulator.pending_events == 3 and len(simulator._queue) == 3
    simulator.stop()
    assert simulator.pending_events == 0 and simulator._queue._deadlines == {}
    with pytest.raises(SimulationStateError, match="stopped simulator"):
        simulator.deadline_in(1.0, lambda: None)


@pytest.mark.parametrize("arm_with", ["schedule_in", "deadline_in"])
def test_a_trace_hook_may_stop_the_simulator_as_a_deadline_fires(arm_with):
    simulator = Simulator(seed=0)
    fired = []
    for name in ("a", "b"):
        getattr(simulator, arm_with)(1.0, fired.append, name, label=name)
    simulator.add_trace_hook(lambda time, label: simulator.stop())
    simulator.run_until(2.0)
    # The popped deadline still fires, as any popped event does; the one
    # behind it went with the queue.
    assert fired == ["a"] and simulator.pending_events == 0


def test_the_default_stack_parks_its_operation_timeouts():
    simulation = Simulation(SimulationConfig(seed=5, duration=60.0))
    simulation.run()
    coordinator = simulation.cluster.coordinator
    assert coordinator._timers is None
    operations = coordinator.reads_started + coordinator.writes_started
    stats = simulation.simulator.queue_stats()
    assert _conserved(stats)
    # Nearly every timeout is cancelled while an earlier one is pending, so
    # it is dropped from its FIFO without ever being heaped.
    assert stats["deadlines_dropped"] > 0.9 * operations
    assert stats["cancelled_skipped"] < 0.05 * operations
