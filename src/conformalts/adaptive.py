"""Online adaptation machinery: per-horizon miscoverage tracking and
fixed-width score windows.

The miscoverage update is the online correction of adaptive conformal
inference (Gibbs & Candes 2021, arXiv 2106.00170): each observed block
nudges every step's working level alpha_h by gamma toward the target, down
after a miss, up after a cover, in one array update. Clamping keeps the
level a valid quantile argument. The score windows are one store, a
(rows, width) array with one row per window. Its width is fixed for life:
each block slides its new scores in and evicts as many of the oldest (the
ensemble-batch update of EnbPI, Xu & Xie 2021, arXiv 2010.09107), so the
conformity evidence ages out at a fixed rate.
"""

from __future__ import annotations

import numpy as np

from .seeding import spawn_rng


def aci_update(alphas: np.ndarray, target: float, gamma: float, hits) -> np.ndarray:
    """One online update of every step's level: alpha_h + gamma * (target -
    miss_h), clamped into [0, 1], where miss_h is 1 where ``hits`` is False
    and 0 where it is True. Returns the new levels; ``alphas`` is unchanged.
    """
    hits = np.asarray(hits, dtype=bool)
    if hits.shape != np.shape(alphas):
        raise ValueError(f"expected hits of shape {np.shape(alphas)}, got {hits.shape}")
    miss = (~hits).astype(float)
    return np.clip(alphas + gamma * (target - miss), 0.0, 1.0)


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
