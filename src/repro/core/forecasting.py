"""Load forecasting for "smart" (proactive) auto-scaling.

Reactive autoscalers act after the damage is done: when the utilisation or
the inconsistency window has already crossed the threshold, provisioning a
node still takes minutes of rebalancing before it relieves anything.
Forecast-based scaling acts *before* the load arrives, which is what the
"smart auto-scaling" of the paper's title requires for flash crowds and
diurnal cycles.  Three standard lightweight forecasters are provided — the
predictive policy and experiment E6 compare them:

* :class:`EwmaForecaster` — exponentially weighted moving average; a robust
  baseline that effectively predicts "more of the same".
* :class:`HoltWintersForecaster` — double exponential smoothing (level and
  trend), able to extrapolate trends.
* :class:`AutoRegressiveForecaster` — an AR(p) model fitted by least squares
  over a sliding history window.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, Dict, Optional, Type

import numpy as np

__all__ = [
    "Forecaster",
    "NaiveForecaster",
    "EwmaForecaster",
    "HoltWintersForecaster",
    "AutoRegressiveForecaster",
    "FORECASTERS",
]

#: Smoothing weight of each new sample in the EWMA level.
EWMA_ALPHA = 0.3
#: Holt's level and trend smoothing weights.
HOLT_ALPHA = 0.4
HOLT_BETA = 0.1
#: Lags of the AR model, samples in its sliding window, and samples between refits.
AR_ORDER = 4
AR_WINDOW = 120
AR_REFIT_EVERY = 10
#: Evenly spaced points over the horizon at which a peak forecast is taken.
PEAK_STEPS = 6


class Forecaster(abc.ABC):
    """Online univariate forecaster fed with ``(time, value)`` samples."""

    def __init__(self) -> None:
        self._last_time: Optional[float] = None
        self._last_value: float = 0.0
        self._observations = 0

    @property
    def observations(self) -> int:
        """Number of samples observed so far."""
        return self._observations

    def observe(self, time: float, value: float) -> None:
        """Feed one sample (times must be non-decreasing)."""
        if self._last_time is not None and time < self._last_time:
            raise ValueError("observations must arrive in time order")
        self._update(time, float(value))
        self._last_time = time
        self._last_value = float(value)
        self._observations += 1

    @abc.abstractmethod
    def _update(self, time: float, value: float) -> None:
        """Model-specific state update."""

    @abc.abstractmethod
    def forecast(self, horizon: float) -> float:
        """Predict the value ``horizon`` seconds after the last observation."""

    def forecast_peak(self, horizon: float) -> float:
        """Largest forecast value over ``[0, horizon]`` (used for provisioning)."""
        if horizon <= 0.0:
            return self.forecast(0.0)
        return max(self.forecast(horizon * (i + 1) / PEAK_STEPS) for i in range(PEAK_STEPS))


class NaiveForecaster(Forecaster):
    """Predicts that the future equals the last observation (persistence)."""

    def _update(self, time: float, value: float) -> None:
        pass

    def forecast(self, horizon: float) -> float:
        return self._last_value


class EwmaForecaster(Forecaster):
    """Exponentially weighted moving average (level only)."""

    def __init__(self) -> None:
        super().__init__()
        self._level: Optional[float] = None

    def _update(self, time: float, value: float) -> None:
        if self._level is None:
            self._level = value
        else:
            self._level = EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * self._level

    def forecast(self, horizon: float) -> float:
        return self._level if self._level is not None else self._last_value


class HoltWintersForecaster(Forecaster):
    """Holt's linear trend method (Holt-Winters without a seasonal term).

    Samples are assumed to arrive at a roughly constant interval; the
    forecast converts the requested horizon into a number of steps using the
    average observed inter-sample interval.
    """

    def __init__(self) -> None:
        super().__init__()
        self._level: Optional[float] = None
        self._trend = 0.0
        self._interval_sum = 0.0
        self._interval_count = 0
        self._previous_time: Optional[float] = None

    def _update(self, time: float, value: float) -> None:
        if self._previous_time is not None:
            self._interval_sum += time - self._previous_time
            self._interval_count += 1
        self._previous_time = time

        if self._level is None:
            self._level = value
            self._trend = 0.0
        else:
            previous_level = self._level
            self._level = HOLT_ALPHA * value + (1.0 - HOLT_ALPHA) * (previous_level + self._trend)
            self._trend = HOLT_BETA * (self._level - previous_level) + (
                1.0 - HOLT_BETA
            ) * self._trend

    def _mean_interval(self) -> float:
        if self._interval_count == 0:
            return 1.0
        return max(1e-9, self._interval_sum / self._interval_count)

    def forecast(self, horizon: float) -> float:
        if self._level is None:
            return self._last_value
        steps_ahead = horizon / self._mean_interval()
        return max(0.0, self._level + self._trend * steps_ahead)


class AutoRegressiveForecaster(Forecaster):
    """AR(p) model refitted by least squares over a sliding window."""

    def __init__(self) -> None:
        super().__init__()
        self._window: Deque[float] = deque(maxlen=AR_WINDOW)
        self._coefficients: Optional[np.ndarray] = None
        self._intercept = 0.0
        self._since_fit = 0
        self._interval_sum = 0.0
        self._interval_count = 0
        self._previous_time: Optional[float] = None

    def _update(self, time: float, value: float) -> None:
        if self._previous_time is not None:
            self._interval_sum += time - self._previous_time
            self._interval_count += 1
        self._previous_time = time
        self._window.append(value)
        self._since_fit += 1
        if (
            len(self._window) > AR_ORDER + 2
            and self._since_fit >= AR_REFIT_EVERY
        ):
            self._fit()
            self._since_fit = 0

    def _fit(self) -> None:
        data = np.asarray(self._window, dtype=float)
        order = AR_ORDER
        rows = len(data) - order
        if rows < 2:
            return
        design = np.empty((rows, order + 1))
        design[:, 0] = 1.0
        for lag in range(order):
            design[:, lag + 1] = data[order - lag - 1 : order - lag - 1 + rows]
        target = data[order:]
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        self._intercept = float(solution[0])
        self._coefficients = solution[1:]

    def _mean_interval(self) -> float:
        if self._interval_count == 0:
            return 1.0
        return max(1e-9, self._interval_sum / self._interval_count)

    def forecast(self, horizon: float) -> float:
        if self._coefficients is None or len(self._window) < AR_ORDER:
            return self._last_value
        steps_ahead = max(1, int(round(horizon / self._mean_interval())))
        history = list(self._window)[-AR_ORDER:]
        value = self._last_value
        for _ in range(min(steps_ahead, 1000)):
            lags = np.asarray(history[::-1][:AR_ORDER], dtype=float)
            value = self._intercept + float(np.dot(self._coefficients, lags))
            history.append(value)
            history = history[-AR_ORDER:]
        return max(0.0, value)


#: Every forecaster class by the name ``ControllerConfig.forecaster`` takes.
FORECASTERS: Dict[str, Type[Forecaster]] = {
    "naive": NaiveForecaster,
    "ewma": EwmaForecaster,
    "holt_winters": HoltWintersForecaster,
    "autoregressive": AutoRegressiveForecaster,
}
