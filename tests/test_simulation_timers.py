"""TimerService: the hashed wheel must be invisible except in cost.

The contract (PERFORMANCE.md rule 11) has two halves:

* **Promotion preserves exactness** — a timer that survives to its bucket's
  tick fires at the bit-identical time, in the bit-identical order (including
  interleaving against ordinary events at the same timestamp), as the same
  timer armed directly via ``Simulator.schedule_in``.  Property-tested over
  randomised arm/cancel/background-event schedules on a lattice of times so
  (time, priority) collisions actually occur.
* **Lazy cancel is free** — a timer cancelled before its bucket ticks never
  enters the heap: no push, no cancelled corpse for the run loop to sift.
"""

from __future__ import annotations

import random

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.errors import SchedulingError, SimulationStateError
from repro.simulation.timers import (
    DEFAULT_TIMER_GRANULARITY,
    PRIORITY_TIMER_TICK,
    TimerService,
)

GRANULARITY = 0.05
#: Script times live on this lattice so same-(time, priority) collisions
#: between timers and background events happen often.
LATTICE = 0.005


def _random_script(seed: int, timers: int = 40, background: int = 40):
    """A deterministic schedule of timer arms, cancels and ordinary events."""
    rng = random.Random(seed)
    arms = []
    for index in range(timers):
        arm_time = rng.randrange(0, 400) * LATTICE
        delay = rng.randrange(0, 120) * LATTICE
        roll = rng.random()
        if roll < 0.5 and delay > 0.0:
            # Cancel strictly before the deadline (the common hedged case).
            cancel_after = rng.randrange(0, max(1, int(delay / LATTICE))) * LATTICE
        elif roll < 0.7:
            # Cancel after the deadline — a no-op by then.
            cancel_after = delay + rng.randrange(1, 20) * LATTICE
        else:
            cancel_after = None  # survivor
        arms.append((index, arm_time, delay, cancel_after))
    bg_events = [
        (index, rng.randrange(0, 520) * LATTICE) for index in range(background)
    ]
    return arms, bg_events


def _run_script(seed: int, use_wheel: bool):
    """Execute a script; return (firing log, service or None, simulator)."""
    simulator = Simulator(seed=0)
    service = TimerService(simulator, granularity=GRANULARITY) if use_wheel else None
    arm = service.arm if use_wheel else simulator.schedule_in
    log: list[tuple[float, str]] = []
    handles: dict[int, object] = {}

    def fire(label: str) -> None:
        log.append((simulator.now, label))

    def do_cancel(index: int) -> None:
        handles[index].cancel()

    def do_arm(index: int, delay: float, cancel_after) -> None:
        handles[index] = arm(delay, fire, f"timer{index}", label=f"timer{index}")
        if cancel_after is not None:
            simulator.schedule_in(cancel_after, do_cancel, index)

    arms, bg_events = _random_script(seed)
    for index, arm_time, delay, cancel_after in arms:
        simulator.schedule(arm_time, do_arm, index, delay, cancel_after)
    for index, time in bg_events:
        simulator.schedule(time, fire, f"bg{index}")
    simulator.run_until_empty()
    return log, service, simulator


# ----------------------------------------------------------------------
# Property (a): survivors fire bit-identically to direct schedule_in
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_wheel_survivors_fire_bit_identically_to_schedule_in(seed):
    direct_log, _, _ = _run_script(seed, use_wheel=False)
    wheel_log, service, _ = _run_script(seed, use_wheel=True)
    # Same firings, same (bit-exact) times, same order — including the
    # interleaving of timers with background events at shared timestamps.
    assert wheel_log == direct_log
    assert service.timers_armed == 40
    assert service.timers_wheeled + service.timers_direct == service.timers_armed
    # The lattice makes both populations non-trivial across the seed range.
    assert service.timers_wheeled > 0


def test_wheel_accounting_balances():
    _, service, _ = _run_script(3, use_wheel=True)
    assert (
        service.timers_cancelled + service.timers_promoted == service.timers_wheeled
    )
    assert service.pending_timers() == 0
    stats = service.stats()
    assert stats["pending_buckets"] == 0
    assert stats["timers_armed"] == 40


# ----------------------------------------------------------------------
# Property (b): cancel-before-tick never touches the heap
# ----------------------------------------------------------------------
def test_cancel_before_tick_never_promotes_into_heap():
    simulator = Simulator(seed=0)
    service = TimerService(simulator, granularity=0.1)
    count = 50

    def boom() -> None:  # pragma: no cover - must never fire
        raise AssertionError("cancelled timer fired")

    def arm_and_cancel() -> None:
        for index in range(count):
            # Deadlines at least two buckets out, so every arm wheels.
            handle = service.arm(0.5 + index * 0.01, boom)
            handle.cancel()

    simulator.schedule(0.0, arm_and_cancel)
    before = simulator.queue_stats()["scheduled"]
    simulator.run_until_empty()
    after = simulator.queue_stats()

    assert service.timers_wheeled == count
    assert service.timers_promoted == 0
    assert service.timers_cancelled == count
    # The only heap traffic beyond the driver is the bucket ticks — no
    # timer push, and no cancelled corpse for the pop path to sift.
    ticks = after["scheduled"] - before
    assert ticks == after["fired"] - 1  # every scheduled tick fired
    assert after["cancelled_skipped"] == 0


def test_survivor_fires_at_exact_deadline_and_order():
    simulator = Simulator(seed=0)
    service = TimerService(simulator, granularity=0.05)
    fired = []
    delay = 0.173  # not a multiple of the granularity
    simulator.schedule(0.0, lambda: service.arm(delay, lambda: fired.append(simulator.now)))
    simulator.run_until_empty()
    assert fired == [delay]
    assert service.timers_promoted == 1


def test_unwheelable_delay_falls_back_to_direct_schedule():
    simulator = Simulator(seed=0)
    service = TimerService(simulator, granularity=0.05)
    fired = []
    # Delay inside the current bucket: the bucket start is in the past.
    handle = service.arm(0.01, lambda: fired.append(simulator.now))
    assert service.timers_direct == 1
    assert service.timers_wheeled == 0
    simulator.run_until_empty()
    assert fired == [0.01]
    assert not handle.cancelled


def test_cancel_after_promotion_still_works():
    simulator = Simulator(seed=0)
    service = TimerService(simulator, granularity=0.05)
    fired = []
    holder = {}
    simulator.schedule(
        0.0, lambda: holder.update(h=service.arm(0.08, lambda: fired.append(1)))
    )
    # Run past the bucket tick (0.05) but short of the deadline (0.08),
    # then cancel: the promoted heap entry must be lazily skipped.
    simulator.run_until(0.06)
    assert service.timers_promoted == 1
    holder["h"].cancel()
    simulator.run_until_empty()
    assert fired == []
    assert simulator.queue_stats()["cancelled_skipped"] == 1


def test_tick_priority_is_below_every_user_priority():
    assert PRIORITY_TIMER_TICK < Simulator.PRIORITY_CONTROL


def test_arm_validation_matches_schedule_in():
    simulator = Simulator(seed=0)
    service = TimerService(simulator, granularity=DEFAULT_TIMER_GRANULARITY)
    with pytest.raises(SchedulingError):
        service.arm(-1.0, lambda: None)
    with pytest.raises(SchedulingError):
        service.arm(float("inf"), lambda: None)
    with pytest.raises(SchedulingError):
        TimerService(simulator, granularity=0.0)
    simulator.stop()
    with pytest.raises(SimulationStateError):
        service.arm(1.0, lambda: None)


def test_queue_tracks_peak_pending():
    simulator = Simulator(seed=0)
    for index in range(10):
        simulator.schedule_in(1.0 + index, lambda: None)
    assert simulator.queue_stats()["peak_pending"] == 10
    simulator.run_until_empty()
    stats = simulator.queue_stats()
    assert stats["pending"] == 0
    assert stats["peak_pending"] == 10
