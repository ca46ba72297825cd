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
* :class:`HoltWintersForecaster` — double/triple exponential smoothing with
  an optional seasonal component, able to extrapolate trends and daily
  patterns.
* :class:`AutoRegressiveForecaster` — an AR(p) model fitted by least squares
  over a sliding history window.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, List, Optional

import numpy as np

__all__ = [
    "Forecaster",
    "NaiveForecaster",
    "EwmaForecaster",
    "HoltWintersForecaster",
    "AutoRegressiveForecaster",
    "make_forecaster",
]


class Forecaster(abc.ABC):
    """Online univariate forecaster fed with ``(time, value)`` samples."""

    name: str = "forecaster"

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

    def forecast_peak(self, horizon: float, steps: int = 6) -> float:
        """Largest forecast value over ``[0, horizon]`` (used for provisioning)."""
        if horizon <= 0.0 or steps < 1:
            return self.forecast(0.0)
        return max(self.forecast(horizon * (i + 1) / steps) for i in range(steps))


class NaiveForecaster(Forecaster):
    """Predicts that the future equals the last observation (persistence)."""

    name = "naive"

    def _update(self, time: float, value: float) -> None:
        pass

    def forecast(self, horizon: float) -> float:
        return self._last_value


class EwmaForecaster(Forecaster):
    """Exponentially weighted moving average (level only)."""

    name = "ewma"

    def __init__(self, alpha: float = 0.3) -> None:
        super().__init__()
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self._alpha = alpha
        self._level: Optional[float] = None

    def _update(self, time: float, value: float) -> None:
        if self._level is None:
            self._level = value
        else:
            self._level = self._alpha * value + (1.0 - self._alpha) * self._level

    def forecast(self, horizon: float) -> float:
        return self._level if self._level is not None else self._last_value


class HoltWintersForecaster(Forecaster):
    """Holt's linear trend method with optional additive seasonality.

    Samples are assumed to arrive at a roughly constant interval; the
    forecast converts the requested horizon into a number of steps using the
    average observed inter-sample interval.
    """

    name = "holt_winters"

    def __init__(
        self,
        alpha: float = 0.4,
        beta: float = 0.1,
        gamma: float = 0.1,
        season_length: int = 0,
    ) -> None:
        super().__init__()
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self._alpha = alpha
        self._beta = beta
        self._gamma = gamma
        self._season_length = max(0, int(season_length))
        self._level: Optional[float] = None
        self._trend = 0.0
        self._seasonals: List[float] = [0.0] * self._season_length
        self._step = 0
        self._interval_sum = 0.0
        self._interval_count = 0
        self._previous_time: Optional[float] = None

    def _seasonal_index(self, step: int) -> int:
        return step % self._season_length if self._season_length else 0

    def _update(self, time: float, value: float) -> None:
        if self._previous_time is not None:
            self._interval_sum += time - self._previous_time
            self._interval_count += 1
        self._previous_time = time

        seasonal = (
            self._seasonals[self._seasonal_index(self._step)] if self._season_length else 0.0
        )
        if self._level is None:
            self._level = value - seasonal
            self._trend = 0.0
        else:
            previous_level = self._level
            self._level = self._alpha * (value - seasonal) + (1.0 - self._alpha) * (
                previous_level + self._trend
            )
            self._trend = self._beta * (self._level - previous_level) + (
                1.0 - self._beta
            ) * self._trend
            if self._season_length:
                index = self._seasonal_index(self._step)
                self._seasonals[index] = (
                    self._gamma * (value - self._level)
                    + (1.0 - self._gamma) * self._seasonals[index]
                )
        self._step += 1

    def _mean_interval(self) -> float:
        if self._interval_count == 0:
            return 1.0
        return max(1e-9, self._interval_sum / self._interval_count)

    def forecast(self, horizon: float) -> float:
        if self._level is None:
            return self._last_value
        steps_ahead = horizon / self._mean_interval()
        seasonal = 0.0
        if self._season_length:
            index = self._seasonal_index(self._step + int(round(steps_ahead)))
            seasonal = self._seasonals[index]
        return max(0.0, self._level + self._trend * steps_ahead + seasonal)


class AutoRegressiveForecaster(Forecaster):
    """AR(p) model refitted by least squares over a sliding window."""

    name = "autoregressive"

    def __init__(self, order: int = 4, window: int = 120, refit_every: int = 10) -> None:
        super().__init__()
        if order < 1:
            raise ValueError("order must be >= 1")
        if window <= order + 1:
            raise ValueError("window must exceed order + 1")
        self._order = order
        self._window: Deque[float] = deque(maxlen=window)
        self._refit_every = max(1, refit_every)
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
            len(self._window) > self._order + 2
            and self._since_fit >= self._refit_every
        ):
            self._fit()
            self._since_fit = 0

    def _fit(self) -> None:
        data = np.asarray(self._window, dtype=float)
        order = self._order
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
        if self._coefficients is None or len(self._window) < self._order:
            return self._last_value
        steps_ahead = max(1, int(round(horizon / self._mean_interval())))
        history = list(self._window)[-self._order :]
        value = self._last_value
        for _ in range(min(steps_ahead, 1000)):
            lags = np.asarray(history[::-1][: self._order], dtype=float)
            value = self._intercept + float(np.dot(self._coefficients, lags))
            history.append(value)
            history = history[-self._order :]
        return max(0.0, value)


def make_forecaster(name: str, **kwargs: object) -> Forecaster:
    """Factory used by controller configs serialised as plain strings."""
    lowered = name.lower()
    if lowered == "naive":
        return NaiveForecaster()
    if lowered == "ewma":
        return EwmaForecaster(**kwargs)  # type: ignore[arg-type]
    if lowered in ("holt_winters", "holtwinters", "holt-winters"):
        return HoltWintersForecaster(**kwargs)  # type: ignore[arg-type]
    if lowered in ("autoregressive", "ar"):
        return AutoRegressiveForecaster(**kwargs)  # type: ignore[arg-type]
    raise ValueError(f"unknown forecaster {name!r}")
