"""Split-conformal primitives: conformity scores and the finite-sample
quantile that turns a score multiset into a calibrated correction.

The quantile rule is the ceil((n+1)(1-alpha)) order statistic throughout the
package. Its index is clamped into [1, n], which makes the rule total on
alpha in [0, 1]: alpha = 0 returns the maximum score and alpha = 1 the
minimum, the two extremes an adaptive level can reach.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyScoreSet, InvalidInterval


def score_absolute(y_hat: np.ndarray | float, y: np.ndarray | float) -> np.ndarray | float:
    """Absolute residual |y_hat - y|, elementwise."""
    return np.abs(np.asarray(y_hat, dtype=float) - np.asarray(y, dtype=float))[()]


def score_cqr(lo: np.ndarray | float, hi: np.ndarray | float, y: np.ndarray | float):
    """Signed distance of y outside the band [lo, hi].

    Negative when y is strictly inside, zero on a bound, positive outside;
    the magnitude is the distance to the nearest violated bound.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(lo > hi):
        raise InvalidInterval("lower quantile exceeds upper quantile")
    return np.maximum(lo - y, y - hi)[()]


def conformal_quantile(scores, alpha: float) -> float:
    """The ceil((n+1)(1-alpha))-th smallest score, index clamped to [1, n]."""
    s = np.asarray(scores, dtype=float).reshape(-1)
    if s.size == 0:
        raise EmptyScoreSet("cannot take a quantile of an empty score set")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    n = s.size
    k = math.ceil((n + 1) * (1.0 - alpha))
    k = min(max(k, 1), n)
    return float(np.sort(s, kind="stable")[k - 1])


def cqr_interval(lo, hi, qhat):
    """Widen the band [lo, hi] by qhat on each side, elementwise; returns
    the (lower, upper) bounds.

    A sufficiently negative qhat would invert a pair of bounds; that pair
    then collapses to its band midpoint instead.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise InvalidInterval("lower quantile exceeds upper quantile")
    lower = lo - qhat
    upper = hi + qhat
    inverted = lower > upper
    mid = 0.5 * (lo + hi)
    return np.where(inverted, mid, lower)[()], np.where(inverted, mid, upper)[()]
