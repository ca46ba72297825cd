"""Calibrated host-time measurement: the segment estimator.

A measured phase is never timed as one block.  The run phase is cut into
``SEGMENTS`` equal slices of *simulated* time advanced by back-to-back
``run_until`` calls (the report digest is identical to one ``run_until``;
``test_ledger.py`` keeps that true), with one burst of the frozen calibrator
(:mod:`calibrate`) before every slice and after the last.  Then

1. the burst times are smoothed with a running median of ``BURST_WINDOW`` so a
   hiccup that hit one burst does not rescale its two neighbours,
2. each slice's host seconds are divided by the speed factor of its two
   adjacent (smoothed) bursts — how slow the host was relative to
   ``NOMINAL_BURST_S`` while the slice ran,
3. the calibrated slice costs are smoothed with a running median of
   ``COST_WINDOW``, which follows load phases (a diurnal peak spans many
   slices) but drops an isolated spike that hit a slice and not its bursts,
4. the smoothed costs are summed: the phase's *calibrated seconds* (``cal_s``).

Short phases (one set-up, the report) are bracketed by ``GROUP`` bursts on
each side instead.  Raw wall seconds are kept beside every calibrated figure
as information only.

Changing the window widths or the segment count changes what a calibrated
second means; like the calibrator itself that is a new ``benchmark`` issue.
"""

from __future__ import annotations

import resource
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from calibrate import NOMINAL_BURST_S, Calibrator

__all__ = [
    "SEGMENTS",
    "SPEED_RATIO_WARN",
    "running_median",
    "segment_speed_factors",
    "calibrated_seconds",
    "segment_edges",
    "HostClock",
    "peak_rss_mb",
]

SEGMENTS = 64
BURST_WINDOW = 3
COST_WINDOW = 5
GROUP = 2
#: ``run.py`` warns when the host's speed moved by more than this inside one
#: run: calibration is a first-order correction and is least trustworthy then.
SPEED_RATIO_WARN = 1.5


def running_median(values: Sequence[float], width: int) -> List[float]:
    """Centred running median; the window is truncated at both ends."""
    half = width // 2
    return [
        median(values[max(0, index - half) : index + half + 1])
        for index in range(len(values))
    ]


def segment_speed_factors(burst_s: Sequence[float]) -> List[float]:
    """Host slowness (1.0 = reference speed) during each of ``len(burst_s) - 1``
    segments, from the smoothed bursts on either side of it."""
    smooth = running_median(burst_s, BURST_WINDOW)
    return [
        (before + after) / (2.0 * NOMINAL_BURST_S)
        for before, after in zip(smooth, smooth[1:])
    ]


def calibrated_seconds(segment_s: Sequence[float], burst_s: Sequence[float]) -> float:
    """The estimator described in the module docstring (steps 1-4)."""
    if len(burst_s) != len(segment_s) + 1:
        raise ValueError(
            f"need one burst around every segment: {len(segment_s)} segments, "
            f"{len(burst_s)} bursts"
        )
    factors = segment_speed_factors(burst_s)
    costs = [seconds / factor for seconds, factor in zip(segment_s, factors)]
    return sum(running_median(costs, COST_WINDOW))


def segment_edges(start: float, end: float, segments: int = SEGMENTS) -> List[float]:
    """The simulated times at which the segments of ``start -> end`` end.

    The last edge is ``end`` itself, not ``start + segments * step``, so the
    clock lands exactly where a single ``run_until(end)`` would put it.
    """
    step = (end - start) / segments
    return [start + index * step for index in range(1, segments)] + [end]


class HostClock:
    """Times phases of one benchmark process in calibrated seconds."""

    def __init__(self) -> None:
        self._calibrator = Calibrator()
        for _ in range(8):  # first bursts pay for cold caches and lazy imports
            self._calibrator.burst()
        self.speed_factors: List[float] = []
        """Every speed factor used so far (for the min/median/max line)."""

    def _group(self) -> List[float]:
        return [self._calibrator.burst() for _ in range(GROUP)]

    def timed(self, phase: Callable[[], object]) -> Tuple[object, float, float]:
        """Run a short phase; return ``(result, raw_s, cal_s)``."""
        bursts = self._group()
        started = perf_counter()
        result = phase()
        raw = perf_counter() - started
        bursts += self._group()
        factor = median(bursts) / NOMINAL_BURST_S
        self.speed_factors.append(factor)
        return result, raw, raw / factor

    def segmented(
        self,
        advance: Callable[[float], object],
        start: float,
        end: float,
        segments: int = SEGMENTS,
    ) -> Dict[str, float]:
        """Advance simulated time ``start -> end`` in ``segments`` timed slices."""
        burst = self._calibrator.burst
        segment_s: List[float] = []
        burst_s = [burst()]
        for edge in segment_edges(start, end, segments):
            started = perf_counter()
            advance(edge)
            segment_s.append(perf_counter() - started)
            burst_s.append(burst())
        self.speed_factors.extend(segment_speed_factors(burst_s))
        return {
            "raw_s": sum(segment_s),
            "cal_s": calibrated_seconds(segment_s, burst_s),
        }

    def speed_summary(self) -> Dict[str, float]:
        """Min / median / max of the speed factors seen in this process."""
        factors = self.speed_factors or [1.0]
        return {
            "speed_factor_min": min(factors),
            "speed_factor_median": median(factors),
            "speed_factor_max": max(factors),
        }


def peak_rss_mb() -> Tuple[float, float]:
    """``(own, largest waited-for descendant)`` peak resident set in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, children
