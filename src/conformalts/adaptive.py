"""Online adaptation machinery: per-horizon miscoverage tracking and
fixed-width score windows.

The miscoverage update is the standard online correction: each observed
block nudges the working level alpha_h by gamma toward the target, down
after a miss, up after a cover. Clamping keeps the level a valid quantile
argument. The score windows are one store, a (rows, width) array with one
row per window. Its width is fixed for life: each block slides its new
scores in and evicts as many of the oldest (the ensemble-batch update of
EnbPI, Xu & Xie 2021, arXiv 2010.09107), so the conformity evidence ages
out at a fixed rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import spawn_rng


@dataclass
class AciState:
    """Working miscoverage levels for each forecast step.

    ``alphas[h-1]`` is the current level for horizon step h. ``target`` is
    the nominal miscoverage alpha the update steers toward and ``gamma`` the
    adaptation rate.
    """

    target: float
    gamma: float
    alphas: np.ndarray

    @classmethod
    def fresh(cls, alpha: float, gamma: float, horizon: int) -> "AciState":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if gamma < 0.0:
            raise ValueError("gamma must be >= 0")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return cls(alpha, gamma, np.full(horizon, float(alpha)))


def aci_update(state: AciState, h: int, covered: bool) -> AciState:
    """Apply one online update for horizon step h (1-based), in place.

    alpha_h += gamma * (target - miss) where miss is 1 on a miscover and 0
    otherwise; the result is clamped into [0, 1].
    """
    if not 1 <= h <= state.alphas.size:
        raise ValueError(f"horizon step {h} out of range 1..{state.alphas.size}")
    miss = 0.0 if covered else 1.0
    raw = state.alphas[h - 1] + state.gamma * (state.target - miss)
    state.alphas[h - 1] = min(max(raw, 0.0), 1.0)
    return state


def init_gamma(window_size: int, n_scores: int) -> float:
    """Adaptation rate 1 / max(window_size, n_scores).

    Tied to the larger of the window capacity and the initial score count so
    one update never outweighs the evidence backing the current quantile.
    """
    if window_size < 1 or n_scores < 1:
        raise ValueError("window_size and n_scores must be >= 1")
    return 1.0 / float(max(window_size, n_scores))


class SlidingScoreWindow:
    """Fixed-width FIFO windows of conformity scores, one per row.

    Built from its initial scores, a (rows, width) array; a 1-D set gives
    one row. The width never changes.
    """

    def __init__(self, scores):
        s = np.array(scores, dtype=float, ndmin=2)
        if s.ndim != 2 or s.shape[1] == 0:
            raise ValueError(f"initial scores must be (rows, width) with width >= 1, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        self._scores = s

    def push(self, scores) -> None:
        """Slide a (rows, k) batch in: k FIFO inserts per row, oldest evicted
        first. Nothing is inserted when a score is not finite."""
        s = np.array(scores, dtype=float, ndmin=2)
        rows, width = self._scores.shape
        if s.ndim != 2 or s.shape[0] != rows:
            raise ValueError(f"expected a batch of {rows} rows, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        self._scores = np.concatenate([self._scores, s], axis=1)[:, -width:]

    def values(self) -> np.ndarray:
        """Current contents, (rows, width), oldest first, read-only."""
        view = self._scores.view()
        view.flags.writeable = False
        return view


def sample_without_replacement(scores, capacity: int, seed: int) -> np.ndarray:
    """Thin a score set to at most ``capacity`` entries.

    When the set already fits, everything is kept. Otherwise a uniform
    subset of ``capacity`` scores is drawn without replacement; the kept
    scores stay in their original insertion order so later FIFO eviction
    remains well defined.
    """
    s = np.asarray(scores, dtype=float).reshape(-1)
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if s.size <= capacity:
        return s.copy()
    rng = spawn_rng(seed, "window-sample")
    return s[np.sort(rng.choice(s.size, size=capacity, replace=False))]
