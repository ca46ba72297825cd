"""Frozen host-speed calibrator for the performance ledger.

FROZEN: the burst below and ``NOMINAL_BURST_S`` define the unit every
"calibrated second" (``cal_s``) in this benchmark is expressed in.  Changing
the burst's instruction mix, its iteration count or the constant silently
rescales every recorded number, so any such change is a new ``benchmark``
issue that re-records the baseline — never a ride-along edit.

Why it exists: on the shared 2-core sandbox the same default-config run has
been measured anywhere between 6.8k and 14.0k ops/s within half an hour, CPU
time tracks wall time (cpu/wall ~ 0.99, so the noise is the host, not
preemption of this process) and the VM exposes no hardware counters.  A short
pure-Python burst with the simulator's own instruction mix — heap push/pop,
slotted-object allocation, dict traffic over 30k string keys and scalar numpy
``Generator`` draws — runs between the measured segments; dividing a
segment's host seconds by how slow the adjacent bursts were relative to
``NOMINAL_BURST_S`` removes the host's share of the variation.

The module deliberately imports nothing from ``repro``: an optimisation of the
simulator must not be able to speed up its own yardstick.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter

import numpy as np

__all__ = ["NOMINAL_BURST_S", "Calibrator"]

#: Seconds one burst takes on the reference sandbox at a quiet moment (the
#: 10th percentile of 130 back-to-back bursts taken while nothing else ran).
#: FROZEN — see the module docstring.
NOMINAL_BURST_S = 0.0230

_KEYS = 30_000
_ITERATIONS = 14_000
_HEAP_FLOOR = 512


class _Slotted:
    """Stand-in for the kernel's ``Event``: one slotted allocation per step."""

    __slots__ = ("time", "priority", "sequence", "payload")

    def __init__(self, time: float, priority: int, sequence: int, payload: object) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.payload = payload


class Calibrator:
    """Owns the burst's working set so consecutive bursts see warm state."""

    def __init__(self) -> None:
        self._keys = [f"user{index:08d}" for index in range(_KEYS)]
        self._table = {key: index for index, key in enumerate(self._keys)}
        self._rng = np.random.default_rng(12345)
        self._state = 1
        self._sequence = 0
        self._heap: list = []
        for _ in range(_HEAP_FLOOR):
            self._push(0.0)

    def _push(self, now: float) -> None:
        # Same shape as the kernel's heap entries: (time, priority, seq, obj).
        self._state = (self._state * 48271 + 11) % 2147483647
        time = now + 1e-6 + (self._state / 2147483647.0) * 1e-3
        self._sequence += 1
        event = _Slotted(time, 0, self._sequence, None)
        heappush(self._heap, (time, 0, self._sequence, event))

    def burst(self) -> float:
        """Run one fixed burst of work; return its host seconds."""
        heap = self._heap
        keys = self._keys
        table = self._table
        rng = self._rng
        push = self._push
        started = perf_counter()
        for _ in range(_ITERATIONS):
            entry = heappop(heap)
            now = entry[0]
            push(now)
            if entry[2] % 5 == 0:
                # The data plane schedules ~1.2 events per event fired.
                push(now)
                heappop(heap)
            key = keys[(entry[2] * 7919) % _KEYS]
            table[key] = table.get(key, 0) + 1
            if entry[2] % 3 == 0:
                rng.exponential(0.01)
            else:
                rng.random()
        return perf_counter() - started
