"""Core value types and supervised reframing of univariate series.

A forecasting model never sees a raw series: it sees lag windows. The two
framings here differ only in the target side. The recursive framing pairs
each window of ``n_lags`` consecutive values with the single next value; the
multi-output framing pairs it with the next ``horizon`` values, so one model
call yields a whole forecast path with no error feedback between steps.

Intervals travel as ``lower``/``upper`` bound arrays, from a HorizonIntervals
block to the metrics; ``check_bounds`` and ``covered`` hold the rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInterval, SeriesTooShort


@dataclass(frozen=True)
class TimeSeries:
    """An equally spaced univariate series with an identifier."""

    values: np.ndarray
    id: str = "series"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise SeriesTooShort(f"series {self.id!r} must be a non-empty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"series {self.id!r} contains non-finite values")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SupervisedFrame:
    """Lag-window covariates paired with next-step targets.

    covariates has shape (n_rows, n_lags) and targets (n_rows, horizon);
    row i is the window starting at series position i (0-based).
    """

    covariates: np.ndarray
    targets: np.ndarray
    n_lags: int
    horizon: int

    @property
    def n_rows(self) -> int:
        return self.covariates.shape[0]


def check_bounds(lower, upper) -> None:
    """Raise InvalidInterval unless all bounds are finite and ordered."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise InvalidInterval("interval bounds must be finite")
    inverted = lower > upper
    if inverted.any():
        i = inverted.argmax()
        raise InvalidInterval(f"lower {lower.flat[i]} exceeds upper {upper.flat[i]}")


def covered(lower, upper, y) -> np.ndarray:
    """Closed-interval membership, elementwise."""
    return (lower <= y) & (y <= upper)


@dataclass(frozen=True)
class PredictionInterval:
    lower: float
    upper: float

    def __post_init__(self):
        check_bounds(self.lower, self.upper)

    def covers(self, y: float) -> bool:
        """Closed-interval membership."""
        return self.lower <= y <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class HorizonIntervals:
    """The block of intervals emitted from one forecast origin, as two
    read-only bound arrays of one length.

    ``origin`` is the 1-based time index of the first forecast step, so the
    interval for step h (1-based) refers to time ``origin + h - 1``.
    """

    origin: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float).reshape(-1)
        upper = np.array(self.upper, dtype=float).reshape(-1)
        if lower.size != upper.size:
            raise ValueError(f"{lower.size} lower vs {upper.size} upper bounds")
        check_bounds(lower, upper)
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __len__(self) -> int:
        return self.lower.size

    def __iter__(self):
        return map(PredictionInterval, self.lower.tolist(), self.upper.tolist())

    def covers(self, y) -> np.ndarray:
        """Closed-interval membership of each step's realized value."""
        return covered(self.lower, self.upper, np.asarray(y, dtype=float))


def _window_view(values: np.ndarray, width: int) -> np.ndarray:
    # all length-`width` windows, one per row
    return np.lib.stride_tricks.sliding_window_view(values, width)


def frame_recursive(series: TimeSeries, n_lags: int) -> SupervisedFrame:
    """Frame for one-step-ahead models: windows of ``n_lags`` values, scalar
    next-value targets (kept as a (n_rows, 1) column).

    A series of n observations yields n - n_lags rows.
    """
    if n_lags < 1:
        raise ValueError("n_lags must be >= 1")
    n = len(series)
    if n < n_lags + 1:
        raise SeriesTooShort(
            f"series {series.id!r} has {n} values, needs > {n_lags} for lag framing"
        )
    windows = _window_view(series.values, n_lags)
    covariates = windows[: n - n_lags].copy()
    targets = series.values[n_lags:].reshape(-1, 1).copy()
    return SupervisedFrame(covariates, targets, n_lags, 1)


def frame_mimo(series: TimeSeries, n_lags: int, horizon: int) -> SupervisedFrame:
    """Frame for multi-output models: each window of ``n_lags`` values is
    paired with the following ``horizon`` values.

    A series of n observations yields n - n_lags - horizon + 1 rows; every
    target row is exactly ``horizon`` wide and the last one ends at the final
    observation.
    """
    if n_lags < 1 or horizon < 1:
        raise ValueError("n_lags and horizon must be >= 1")
    n = len(series)
    n_rows = n - n_lags - horizon + 1
    if n_rows < 1:
        raise SeriesTooShort(
            f"series {series.id!r} has {n} values, needs >= {n_lags + horizon} "
            "for multi-output framing"
        )
    windows = _window_view(series.values, n_lags)
    covariates = windows[:n_rows].copy()
    target_windows = _window_view(series.values[n_lags:], horizon)
    targets = target_windows[:n_rows].copy()
    return SupervisedFrame(covariates, targets, n_lags, horizon)


def recursive_forecast(
    predict: Callable[[np.ndarray], float],
    last_window: Sequence[float] | np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Roll a one-step model forward ``horizon`` steps.

    Step 1 is predicted from the final observed window. Each later step h
    sees the most recent ``len(last_window)`` values of the extended history,
    i.e. observed values while they last, then the model's own predictions:

    * h = 1: all observed values,
    * 2 <= h <= n_lags: the last n_lags - h + 1 observed values followed by
      the h - 1 predictions made so far,
    * h > n_lags: predictions only.
    """
    window = np.asarray(last_window, dtype=float)
    if window.ndim != 1 or window.size == 0:
        raise ValueError("last_window must be a non-empty 1-D array")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_lags = window.size
    buffer = list(window)
    out = np.empty(horizon, dtype=float)
    for h in range(horizon):
        x = np.asarray(buffer[-n_lags:], dtype=float)
        yhat = float(predict(x))
        out[h] = yhat
        buffer.append(yhat)
    return out
