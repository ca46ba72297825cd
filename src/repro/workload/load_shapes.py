"""Time-varying arrival-rate shapes.

Section 2 of the paper argues that the inconsistency window drifts because
the load on the database and on the shared infrastructure changes over time;
Section 3 motivates auto-scaling with the pay-as-you-use billing model.  Both
arguments need workloads whose intensity changes on realistic time scales, so
the workload generator takes a :class:`LoadShape` — a function from simulated
time to target operations per second — and offers the shapes the autoscaling
literature evaluates against:

* :class:`ConstantLoad` — steady state, used for parameter studies,
* :class:`DiurnalLoad` — the day/night cycle of an interactive application,
* :class:`FlashCrowdLoad` — a sudden spike (product launch, sale, news event),
* :class:`StepLoad` / :class:`RampLoad` — canonical control-theory inputs used
  to measure controller reaction and convergence,
* :class:`CompositeLoad`, :class:`NoisyLoad`, :class:`TraceLoad` — composition,
  multiplicative noise, and replay of an external rate trace.
"""

from __future__ import annotations

import abc
import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LoadShape",
    "ConstantLoad",
    "DiurnalLoad",
    "FlashCrowdLoad",
    "StepLoad",
    "RampLoad",
    "CompositeLoad",
    "NoisyLoad",
    "TraceLoad",
    "ScaledLoad",
]


class LoadShape(abc.ABC):
    """A target arrival rate (operations/second) as a function of time."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Target operations per second at simulated time ``t``."""

    def mean_rate(self, start: float, end: float, samples: int = 200) -> float:
        """Numerical average rate over ``[start, end]`` (for sizing clusters)."""
        if end <= start:
            return self.rate(start)
        ts = np.linspace(start, end, samples)
        return float(np.mean([self.rate(float(t)) for t in ts]))

    def peak_rate(self, start: float, end: float, samples: int = 400) -> float:
        """Numerical maximum rate over ``[start, end]``."""
        if end <= start:
            return self.rate(start)
        ts = np.linspace(start, end, samples)
        return float(max(self.rate(float(t)) for t in ts))

    def __add__(self, other: "LoadShape") -> "CompositeLoad":
        return CompositeLoad([self, other])


class ConstantLoad(LoadShape):
    """A flat rate."""

    def __init__(self, rate: float) -> None:
        if rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self._rate = float(rate)

    def rate(self, t: float) -> float:
        return self._rate


class DiurnalLoad(LoadShape):
    """A sinusoidal day/night cycle between a trough and a peak rate."""

    def __init__(
        self,
        trough_rate: float,
        peak_rate: float,
        period: float = 86_400.0,
        peak_time: float = 0.5,
    ) -> None:
        """``peak_time`` is the fraction of the period at which the peak occurs."""
        if trough_rate < 0.0 or peak_rate < trough_rate:
            raise ValueError("require 0 <= trough_rate <= peak_rate")
        if period <= 0.0:
            raise ValueError("period must be > 0")
        self._trough = float(trough_rate)
        self._peak = float(peak_rate)
        self._period = float(period)
        self._peak_time = float(peak_time) % 1.0

    def rate(self, t: float) -> float:
        phase = (t / self._period) % 1.0
        # Cosine centred on the peak time: 1 at the peak, -1 at the trough.
        relative = math.cos(2.0 * math.pi * (phase - self._peak_time))
        mid = (self._peak + self._trough) / 2.0
        amplitude = (self._peak - self._trough) / 2.0
        return mid + amplitude * relative


class FlashCrowdLoad(LoadShape):
    """A baseline rate with a sudden spike that ramps up fast and decays."""

    def __init__(
        self,
        base_rate: float,
        spike_rate: float,
        spike_start: float,
        ramp_duration: float = 60.0,
        hold_duration: float = 300.0,
        decay_duration: float = 600.0,
    ) -> None:
        if base_rate < 0.0 or spike_rate < base_rate:
            raise ValueError("require 0 <= base_rate <= spike_rate")
        self._base = float(base_rate)
        self._spike = float(spike_rate)
        self._start = float(spike_start)
        self._ramp = max(1e-9, float(ramp_duration))
        self._hold = max(0.0, float(hold_duration))
        self._decay = max(1e-9, float(decay_duration))

    def rate(self, t: float) -> float:
        if t < self._start:
            return self._base
        elapsed = t - self._start
        if elapsed < self._ramp:
            fraction = elapsed / self._ramp
            return self._base + (self._spike - self._base) * fraction
        elapsed -= self._ramp
        if elapsed < self._hold:
            return self._spike
        elapsed -= self._hold
        if elapsed < self._decay:
            fraction = 1.0 - elapsed / self._decay
            return self._base + (self._spike - self._base) * fraction
        return self._base


class StepLoad(LoadShape):
    """Jumps from one rate to another at a given time (controller step response)."""

    def __init__(self, before_rate: float, after_rate: float, step_time: float) -> None:
        if before_rate < 0.0 or after_rate < 0.0:
            raise ValueError("rates must be >= 0")
        self._before = float(before_rate)
        self._after = float(after_rate)
        self._step_time = float(step_time)

    def rate(self, t: float) -> float:
        return self._after if t >= self._step_time else self._before


class RampLoad(LoadShape):
    """Linear increase (or decrease) between two rates over an interval."""

    def __init__(
        self, start_rate: float, end_rate: float, ramp_start: float, ramp_end: float
    ) -> None:
        if ramp_end <= ramp_start:
            raise ValueError("ramp_end must be after ramp_start")
        if start_rate < 0.0 or end_rate < 0.0:
            raise ValueError("rates must be >= 0")
        self._start_rate = float(start_rate)
        self._end_rate = float(end_rate)
        self._ramp_start = float(ramp_start)
        self._ramp_end = float(ramp_end)

    def rate(self, t: float) -> float:
        if t <= self._ramp_start:
            return self._start_rate
        if t >= self._ramp_end:
            return self._end_rate
        fraction = (t - self._ramp_start) / (self._ramp_end - self._ramp_start)
        return self._start_rate + (self._end_rate - self._start_rate) * fraction


class CompositeLoad(LoadShape):
    """Sum of several shapes (e.g. diurnal baseline + flash crowd)."""

    def __init__(self, shapes: Sequence[LoadShape]) -> None:
        if not shapes:
            raise ValueError("CompositeLoad needs at least one shape")
        self._shapes = list(shapes)

    def rate(self, t: float) -> float:
        # ``sum()`` unrolled: the same additions from the same integer zero in
        # the same order, without a generator frame per part per arrival.
        total = 0
        for shape in self._shapes:
            total += shape.rate(t)
        return total


class ScaledLoad(LoadShape):
    """A shape multiplied by a constant factor.

    The sharded simulation mode hands each shard ``records_i / records``
    of the scenario's arrival process by wrapping the configured shape —
    the temporal profile (diurnal cycle, flash crowd, ...) is preserved,
    only the intensity is divided across shards.
    """

    def __init__(self, base: LoadShape, factor: float) -> None:
        if factor < 0.0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        self._base = base
        self._factor = float(factor)

    @property
    def base(self) -> LoadShape:
        """The wrapped shape."""
        return self._base

    @property
    def factor(self) -> float:
        """The constant multiplier applied to the base rate."""
        return self._factor

    def rate(self, t: float) -> float:
        return self._base.rate(t) * self._factor


class NoisyLoad(LoadShape):
    """Wraps a shape with deterministic multiplicative noise.

    The noise is a sum of incommensurate sinusoids (so it is reproducible
    without threading a random generator through rate lookups) bounded to
    ``1 ± amplitude``.
    """

    def __init__(self, base: LoadShape, amplitude: float = 0.1, period: float = 120.0) -> None:
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        self._base = base
        self._amplitude = float(amplitude)
        self._period = float(period)

    def rate(self, t: float) -> float:
        wobble = (
            math.sin(2.0 * math.pi * t / self._period)
            + 0.5 * math.sin(2.0 * math.pi * t / (self._period * 0.37) + 1.3)
            + 0.25 * math.sin(2.0 * math.pi * t / (self._period * 2.71) + 0.7)
        ) / 1.75
        return max(0.0, self._base.rate(t) * (1.0 + self._amplitude * wobble))


class TraceLoad(LoadShape):
    """Replay of an external ``(time, rate)`` trace with linear interpolation."""

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ValueError("TraceLoad needs at least two points")
        ordered = sorted(points)
        self._times = [float(t) for t, _ in ordered]
        self._rates = [max(0.0, float(r)) for _, r in ordered]

    def rate(self, t: float) -> float:
        if t <= self._times[0]:
            return self._rates[0]
        if t >= self._times[-1]:
            return self._rates[-1]
        index = bisect.bisect_right(self._times, t) - 1
        t0, t1 = self._times[index], self._times[index + 1]
        r0, r1 = self._rates[index], self._rates[index + 1]
        fraction = (t - t0) / (t1 - t0)
        return r0 + (r1 - r0) * fraction
