"""Split-conformal primitives: conformity scores and the finite-sample
quantile that turns a score multiset into a calibrated correction.

The quantile rule is the ceil((n+1)(1-alpha)) order statistic throughout the
package. Its index is clamped into [1, n], which makes the rule total on
alpha in [0, 1]: alpha = 0 returns the maximum score and alpha = 1 the
minimum, the two extremes an adaptive level can reach.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyScoreSet, InvalidInterval


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
    # np.maximum may return either zero on a +0.0/-0.0 tie; adding +0.0 makes
    # every zero score +0.0, so the band [p, p] scores |p - y| bit for bit
    return (np.maximum(lo - y, y - hi) + 0.0)[()]


def conformal_quantile(scores, alpha: float | np.ndarray) -> float | np.ndarray:
    """The ceil((n+1)(1-alpha))-th smallest score, index clamped to [1, n].

    Works along the last axis, one level per row: ``alpha`` broadcasts
    against the leading axes of ``scores`` and the result has their shape.
    A 1-D score set with a scalar level gives a float.
    """
    s = np.atleast_1d(np.asarray(scores, dtype=float))
    a = np.asarray(alpha, dtype=float)
    if s.shape[-1] == 0:
        raise EmptyScoreSet("cannot take a quantile of an empty score set")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    n = s.shape[-1]
    k = np.clip(np.ceil((n + 1) * (1.0 - a)), 1, n).astype(np.intp)
    k = np.broadcast_to(k, s.shape[:-1])[..., None]
    q = np.take_along_axis(np.sort(s, axis=-1, kind="stable"), k - 1, axis=-1)[..., 0]
    return float(q) if q.ndim == 0 else q


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
