"""Core value types and supervised reframing of univariate series.

A forecasting model never sees a raw series: it sees lag windows. The two
framings here differ only in the target side. The recursive framing pairs
each window of ``n_lags`` consecutive values with the single next value; the
multi-output framing pairs it with the next ``horizon`` values, so one model
call yields a whole forecast path with no error feedback between steps.

Intervals travel as ``lower``/``upper`` bound arrays, from the walk to the
metrics; ``check_bounds``, ``covered`` and ``band_levels`` hold the rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InvalidInterval, SeriesTooShort


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

    @property
    def n_rows(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_lags(self) -> int:
        return self.covariates.shape[1]

    @property
    def horizon(self) -> int:
        return self.targets.shape[1]


def band_levels(alpha: float) -> tuple[float, float]:
    """The levels ``(alpha / 2, 1 - alpha / 2)`` that bound the central
    1 - alpha band; a ConfigError unless 0 < lo < hi < 1 as floats, so an
    alpha whose 1 - alpha / 2 rounds to 1.0 is rejected."""
    lo, hi = alpha / 2.0, 1.0 - alpha / 2.0
    if not 0.0 < lo < hi < 1.0:
        raise ConfigError(f"alpha must leave both band levels alpha/2 and 1 - alpha/2 "
                          f"strictly inside (0, 1), got {alpha}", "alpha")
    return lo, hi


def check_bounds(lower, upper) -> None:
    """Raise InvalidInterval unless all bounds and widths are finite and bounds ordered."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise InvalidInterval("interval bounds must be finite")
    inverted = lower > upper
    if inverted.any():
        i = inverted.argmax()
        raise InvalidInterval(f"lower {lower.flat[i]} exceeds upper {upper.flat[i]}")
    with np.errstate(over="ignore"):
        if not np.isfinite(upper - lower).all():
            raise InvalidInterval("an interval's width upper - lower overflows")


def covered(lower, upper, y) -> np.ndarray:
    """Closed-interval membership, elementwise."""
    return (lower <= y) & (y <= upper)


@dataclass(frozen=True)
class PredictionInterval:
    """One checked interval; ``covered`` and ``upper - lower`` score it."""

    lower: float
    upper: float

    def __post_init__(self):
        check_bounds(self.lower, self.upper)


def frame_recursive(series: TimeSeries, n_lags: int) -> SupervisedFrame:
    """Frame for one-step-ahead models: ``frame_mimo`` at horizon 1."""
    return frame_mimo(series, n_lags, 1)


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
    covariates = sliding_window_view(series.values, n_lags)[:n_rows].copy()
    targets = sliding_window_view(series.values[n_lags:], horizon)[:n_rows].copy()
    return SupervisedFrame(covariates, targets)


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
    buffer = np.empty(n_lags + horizon, dtype=float)
    buffer[:n_lags] = window
    for h in range(horizon):
        # a copy, so a predict that keeps or edits its window leaves the buffer alone
        buffer[n_lags + h] = float(predict(buffer[h:h + n_lags].copy()))
    return buffer[n_lags:]
