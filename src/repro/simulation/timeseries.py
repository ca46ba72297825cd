"""Time-series recording utilities shared by monitoring, cost and reporting.

A :class:`TimeSeries` is an append-only sequence of ``(time, value)`` samples
with lightweight aggregation helpers (mean, percentiles, integration, window
slicing).  It backs the simulation reports that the experiment harness turns
into tables.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FloatBuffer", "TimeSeries", "SeriesSummary", "TimeSeriesBundle"]


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


class FloatBuffer:
    """Append-only ``float64`` buffer with amortised O(1) growth.

    Per-operation recorders (workload latencies, buffered monitoring samples)
    append here instead of to a Python list: samples live in a numpy array
    that doubles when full, so reading them back never re-converts an
    ever-growing list.  :meth:`as_array` reads without consuming (exact
    end-of-run statistics); :meth:`drain` reads and resets (windowed flushes).
    """

    __slots__ = ("_data", "_size")

    def __init__(self, initial_capacity: int = 1024) -> None:
        self._data = np.empty(max(1, initial_capacity), dtype=np.float64)
        self._size = 0

    def append(self, value: float) -> None:
        """Append one sample."""
        size = self._size
        data = self._data
        if size == data.shape[0]:
            grown = np.empty(size * 2, dtype=np.float64)
            grown[:size] = data
            self._data = data = grown
        data[size] = value
        self._size = size + 1

    def as_array(self) -> np.ndarray:
        """Zero-copy view of the samples recorded so far."""
        return self._data[: self._size]

    def drain(self) -> np.ndarray:
        """A view of the buffered samples; the buffer is reset for reuse.

        The view aliases the internal array, so callers must consume it
        before the next append.
        """
        view = self._data[: self._size]
        self._size = 0
        return view

    def __len__(self) -> int:
        return self._size


class TimeSeries:
    """Append-only ``(time, value)`` series with aggregation helpers."""

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def __bool__(self) -> bool:
        return bool(self._times)

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"samples must be appended in time order "
                f"({time} < {self._times[-1]}) in series {self.name!r}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    @property
    def times(self) -> Sequence[float]:
        """All sample times."""
        return self._times

    @property
    def values(self) -> Sequence[float]:
        """All sample values."""
        return self._values

    def last(self, default: float = 0.0) -> float:
        """Most recent value, or ``default`` if the series is empty."""
        return self._values[-1] if self._values else default

    def window(self, start: float, end: float) -> "TimeSeries":
        """Return a new series containing samples with ``start <= t < end``."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        out = TimeSeries(self.name)
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def values_since(self, start: float) -> List[float]:
        """Values of samples recorded at or after ``start``."""
        lo = bisect.bisect_left(self._times, start)
        return self._values[lo:]

    def summary(self) -> SeriesSummary:
        """Summary statistics over the whole series."""
        if not self._values:
            return _EMPTY_SUMMARY
        arr = np.asarray(self._values, dtype=float)
        return SeriesSummary(
            count=int(arr.size),
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
        )

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the recorded values (0 when empty)."""
        if not self._values:
            return 0.0
        return float(np.percentile(np.asarray(self._values, dtype=float), q))

    def mean(self) -> float:
        """Arithmetic mean of recorded values (0 when empty)."""
        if not self._values:
            return 0.0
        return float(np.mean(self._values))

    def integrate(self) -> float:
        """Time-weighted integral assuming step interpolation (value holds).

        Used for node-hour accounting: integrating a ``node_count`` series
        over the run yields node-seconds.
        """
        if len(self._times) < 2:
            return 0.0
        total = 0.0
        for i in range(len(self._times) - 1):
            dt = self._times[i + 1] - self._times[i]
            total += self._values[i] * dt
        return total

    def time_weighted_mean(self, end_time: Optional[float] = None) -> float:
        """Time-weighted mean with step interpolation up to ``end_time``."""
        if not self._times:
            return 0.0
        end = end_time if end_time is not None else self._times[-1]
        if len(self._times) == 1 or end <= self._times[0]:
            return self._values[0]
        total = 0.0
        for i in range(len(self._times) - 1):
            dt = min(self._times[i + 1], end) - self._times[i]
            if dt > 0:
                total += self._values[i] * dt
        if end > self._times[-1]:
            total += self._values[-1] * (end - self._times[-1])
        duration = end - self._times[0]
        return total / duration if duration > 0 else self._values[-1]

    def resample(self, interval: float, end_time: Optional[float] = None) -> "TimeSeries":
        """Step-resample onto a regular grid (mainly for plotting/tables)."""
        out = TimeSeries(self.name)
        if not self._times:
            return out
        end = end_time if end_time is not None else self._times[-1]
        t = self._times[0]
        idx = 0
        while t <= end + 1e-12:
            while idx + 1 < len(self._times) and self._times[idx + 1] <= t:
                idx += 1
            out.record(t, self._values[idx])
            t += interval
        return out


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

    def names(self) -> Tuple[str, ...]:
        """All series names recorded so far, sorted."""
        return tuple(sorted(self._series))

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __getitem__(self, name: str) -> TimeSeries:
        return self._series[name]

    def get(self, name: str) -> Optional[TimeSeries]:
        """Return the named series or ``None`` if it was never recorded."""
        return self._series.get(name)

    def summaries(self) -> Dict[str, SeriesSummary]:
        """Summary statistics for every series in the bundle."""
        return {name: series.summary() for name, series in self._series.items()}
