"""Time-series recording utilities shared by monitoring, cost and reporting.

A :class:`TimeSeries` is an append-only sequence of ``(time, value)`` samples
with lightweight aggregation helpers (mean, percentiles, integration, window
slicing).  It backs the simulation reports that the experiment harness turns
into tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

__all__ = ["TimeSeries", "SeriesSummary", "TimeSeriesBundle", "exact_percentiles"]


def percentile_fractions(qs: Iterable[float]) -> List[float]:
    """``q / 100`` for each percentile ``q``, refusing any outside [0, 100]
    (NaN included) with numpy's ``ValueError``."""
    fractions = [q / 100 for q in qs]
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("Percentiles must be in the range [0, 100]")
    return fractions


def exact_percentiles(values, qs: Iterable[float] = (50, 95, 99)) -> List[float]:
    """The ``qs``-th percentiles of ``values`` (p50/p95/p99 by default), by
    numpy's default linear interpolation, each 0.0 when there are no values.

    The one exact percentile rule: every recorder, estimator and report that
    states a percentile of stored samples calls this.  It is numpy's method
    over one in-place sort, without ``np.percentile``'s Python wrapper
    (PERFORMANCE.md rule 2), and gives numpy's answers, bit for bit unless
    the sort and numpy's partition order two equal samples apart (``-0.0``
    and ``0.0``, or two NaNs): ``tests/test_properties.py`` pins this.
    """
    fractions = percentile_fractions(qs)
    ordered = np.array(values, dtype=float)
    top = ordered.size - 1
    if top < 0:
        return [0.0] * len(fractions)
    ordered.sort()
    item = ordered.item
    last = item(top)
    # NaN sorts last, and numpy then answers it for every q.
    if last != last:
        return [last] * len(fractions)
    results = []
    for fraction in fractions:
        # numpy's position, its neighbours, and its weight: measured from the
        # lower neighbour, or from index -1 once both are clipped to the last.
        position = top * fraction
        if position < top:
            low = int(position)
            below, above = item(low), item(low + 1)
            weight = position - low
        else:
            below = above = last
            weight = position + 1
        # numpy's lerp, which interpolates from the nearer neighbour.
        gap = above - below
        results.append(below + gap * weight if weight < 0.5 else above - gap * (1 - weight))
    return results


@dataclass
class SeriesSummary:
    """Summary statistics for one time series over some interval."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> Dict[str, float]:
        """Return the summary as a plain dictionary (for table rendering)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


_EMPTY_SUMMARY = SeriesSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


_INITIAL_CAPACITY = 16


def _grown(column: np.ndarray) -> np.ndarray:
    """``column`` copied into the front of an array of twice its capacity."""
    capacity = column.size
    grown = np.empty(max(_INITIAL_CAPACITY, capacity * 2), dtype=np.float64)
    grown[:capacity] = column
    return grown


class TimeSeries:
    """Append-only ``(time, value)`` series with aggregation helpers.

    Times and values are two ``float64`` columns that double when full:
    :attr:`times` and :attr:`values` are views of them,
    and the order statistics run on the value column as it stands.
    """

    __slots__ = ("name", "_times", "_values", "_size", "_last_time")

    def __init__(self, name: str) -> None:
        self.name = name
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._values = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._size = 0
        self._last_time = -math.inf

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if time < self._last_time:
            raise ValueError(
                f"samples must be appended in time order "
                f"({time} < {float(self._last_time)}) in series {self.name!r}"
            )
        size = self._size
        times = self._times
        if size == times.size:
            self._times = times = _grown(times)
            self._values = _grown(self._values)
        times[size] = time
        self._values[size] = value
        self._size = size + 1
        self._last_time = time

    @property
    def times(self) -> np.ndarray:
        """All sample times (a view; do not write to it)."""
        return self._times[: self._size]

    @property
    def values(self) -> np.ndarray:
        """All sample values (a view; do not write to it)."""
        return self._values[: self._size]

    def last(self, default: float = 0.0) -> float:
        """Most recent value, or ``default`` if the series is empty."""
        return float(self._values[self._size - 1]) if self._size else default

    def window(self, start: float, end: float) -> "TimeSeries":
        """Return a new series containing samples with ``start <= t < end``."""
        times = self.times
        lo, hi = np.searchsorted(times, (start, end), side="left")
        out = TimeSeries(self.name)
        if hi > lo:
            out._times = times[lo:hi].copy()
            out._values = self._values[lo:hi].copy()
            out._size = int(hi - lo)
            out._last_time = float(times[hi - 1])
        return out

    def summary(self) -> SeriesSummary:
        """Summary statistics over the whole series."""
        if not self._size:
            return _EMPTY_SUMMARY
        arr = self.values
        p50, p95, p99 = exact_percentiles(arr)
        return SeriesSummary(
            count=self._size,
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=p50,
            p95=p95,
            p99=p99,
        )

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the recorded values (0 when empty)."""
        return exact_percentiles(self.values, (q,))[0]

    def mean(self) -> float:
        """Arithmetic mean of recorded values (0 when empty)."""
        if not self._size:
            return 0.0
        return float(self.values.mean())

    # The time-weighted sum below accumulates left to right in Python floats:
    # ``node_hours`` and ``total_cost`` are pinned to that order of additions.
    def integrate(self) -> float:
        """Time-weighted integral assuming step interpolation (value holds).

        Used for node-hour accounting: integrating a ``node_count`` series
        over the run yields node-seconds.
        """
        times = self.times.tolist()
        values = self.values.tolist()
        total = 0.0
        for i in range(len(times) - 1):
            dt = times[i + 1] - times[i]
            total += values[i] * dt
        return total


class TimeSeriesBundle:
    """A named collection of time series with lazy creation."""

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        """Return (creating if needed) the series called ``name``."""
        ts = self._series.get(name)
        if ts is None:
            ts = TimeSeries(name)
            self._series[name] = ts
        return ts

    def record(self, name: str, time: float, value: float) -> None:
        """Append a sample to the named series."""
        self.series(name).record(time, value)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __getitem__(self, name: str) -> TimeSeries:
        return self._series[name]

    def get(self, name: str) -> Optional[TimeSeries]:
        """Return the named series or ``None`` if it was never recorded."""
        return self._series.get(name)
