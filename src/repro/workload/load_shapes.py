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
* :class:`StepLoad` — the canonical control-theory input used to measure
  controller reaction and convergence,
* :class:`CompositeLoad`, :class:`NoisyLoad`, :class:`ScaledLoad` —
  composition, multiplicative noise, and a constant factor (sharded runs).

Every numeric argument is checked when the shape is declared: a rate is
finite and >= 0, a period or duration finite and > 0, a time finite.  A
non-finite rate would otherwise hang the generator (an infinite rate makes
every gap 0) or stop it after one arrival (a NaN one).
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from ..cluster.errors import FINITE, NON_NEGATIVE, POSITIVE, check

__all__ = [
    "LoadShape",
    "ConstantLoad",
    "DiurnalLoad",
    "FlashCrowdLoad",
    "StepLoad",
    "CompositeLoad",
    "NoisyLoad",
    "ScaledLoad",
]


class LoadShape(abc.ABC):
    """A target arrival rate (operations/second) as a function of time."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Target operations per second at simulated time ``t``."""

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
        self._rate = float(check("ConstantLoad", "rate", rate, NON_NEGATIVE))

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
        self._trough = float(check("DiurnalLoad", "trough_rate", trough_rate, NON_NEGATIVE))
        self._peak = float(check("DiurnalLoad", "peak_rate", peak_rate, NON_NEGATIVE))
        if self._peak < self._trough:
            raise ValueError("require 0 <= trough_rate <= peak_rate")
        self._period = float(check("DiurnalLoad", "period", period, POSITIVE))
        self._peak_time = float(check("DiurnalLoad", "peak_time", peak_time, FINITE)) % 1.0

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
        self._base = float(check("FlashCrowdLoad", "base_rate", base_rate, NON_NEGATIVE))
        self._spike = float(check("FlashCrowdLoad", "spike_rate", spike_rate, NON_NEGATIVE))
        if self._spike < self._base:
            raise ValueError("require 0 <= base_rate <= spike_rate")
        self._start = float(check("FlashCrowdLoad", "spike_start", spike_start, FINITE))
        self._ramp = float(check("FlashCrowdLoad", "ramp_duration", ramp_duration, POSITIVE))
        self._hold = float(check("FlashCrowdLoad", "hold_duration", hold_duration, NON_NEGATIVE))
        self._decay = float(check("FlashCrowdLoad", "decay_duration", decay_duration, POSITIVE))

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
        self._before = float(check("StepLoad", "before_rate", before_rate, NON_NEGATIVE))
        self._after = float(check("StepLoad", "after_rate", after_rate, NON_NEGATIVE))
        self._step_time = float(check("StepLoad", "step_time", step_time, FINITE))

    def rate(self, t: float) -> float:
        return self._after if t >= self._step_time else self._before


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
        self._base = base
        self._factor = float(check("ScaledLoad", "factor", factor, NON_NEGATIVE))

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
        self._period = float(check("NoisyLoad", "period", period, POSITIVE))

    def rate(self, t: float) -> float:
        wobble = (
            math.sin(2.0 * math.pi * t / self._period)
            + 0.5 * math.sin(2.0 * math.pi * t / (self._period * 0.37) + 1.3)
            + 0.25 * math.sin(2.0 * math.pi * t / (self._period * 2.71) + 0.7)
        ) / 1.75
        return max(0.0, self._base.rate(t) * (1.0 + self._amplitude * wobble))
