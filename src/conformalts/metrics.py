"""Interval quality metrics over bound arrays.

picp   fraction of realized values inside their (closed) intervals
pinaw  mean interval width, normalized by the realized value range
miou   mean intersection-over-union against reference intervals

Every metric takes intervals as aligned ``lower``/``upper`` arrays, checked
with ``framing.check_bounds``. The starred aggregates are plain unweighted
means across series, so a short series counts as much as a long one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, LengthMismatch, ZeroRange
from .framing import check_bounds, covered


def _aligned(name: str, *columns) -> list[np.ndarray]:
    """The columns as flat float arrays of one non-zero length. Columns come
    as (lower, upper) pairs, then optionally the realized values; each pair
    is bounds-checked."""
    arrays = [np.asarray(c, dtype=float).reshape(-1) for c in columns]
    if len({a.size for a in arrays}) != 1:
        raise LengthMismatch(f"{name}: lengths {[a.size for a in arrays]} differ")
    if arrays[0].size == 0:
        raise EmptyInput(f"{name} needs at least one interval")
    for k in range(0, len(arrays) - 1, 2):
        check_bounds(arrays[k], arrays[k + 1])
    return arrays


def picp(lower, upper, y) -> float:
    """Prediction interval coverage probability: mean of 1{lower <= y <= upper}."""
    lower, upper, y = _aligned("picp", lower, upper, y)
    return float(np.mean(covered(lower, upper, y)))


def pinaw(lower, upper, y) -> float:
    """Mean interval width divided by the range of the realized values."""
    lower, upper, y = _aligned("pinaw", lower, upper, y)
    span = float(np.max(y) - np.min(y))
    if span == 0.0:
        raise ZeroRange("realized values have zero range")
    return float(np.mean(upper - lower) / span)


def miou(lower, upper, ref_lower, ref_upper) -> float:
    """Mean intersection-over-union between paired intervals.

    Disjoint pairs contribute 0; identical degenerate pairs contribute 1.
    """
    a_lo, a_hi, b_lo, b_hi = _aligned("miou", lower, upper, ref_lower, ref_upper)
    union = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)
    inter = np.maximum(0.0, np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo))
    # a zero union means both intervals are the same single point
    iou = np.divide(inter, union, out=np.ones_like(union), where=union != 0.0)
    return float(np.mean(iou))


@dataclass
class EvalReport:
    """Metrics for one series, overall and broken down by forecast step."""

    picp: float
    pinaw: float
    miou: float | None
    picp_per_horizon: list[float]
    pinaw_per_horizon: list[float]
    miou_per_horizon: list[float] | None


def evaluate(lower, upper, y, horizons, reference=None) -> EvalReport:
    """Build an EvalReport from flat aligned arrays.

    ``horizons`` gives the 1-based forecast step of each interval; the
    per-horizon numbers restrict each metric to one step. ``reference`` is
    an optional (lower, upper) pair of reference bounds. The width
    normalizer stays the full-series value range so per-horizon pinaw values
    are comparable with each other.
    """
    horizons = np.asarray(horizons, dtype=int).reshape(-1)
    refs = () if reference is None else tuple(reference)
    lower, upper, *refs, y = _aligned("evaluate", lower, upper, *refs, y)
    if horizons.size != y.size:
        raise LengthMismatch("intervals, y and horizons must align")
    overall_picp = picp(lower, upper, y)
    overall_pinaw = pinaw(lower, upper, y)
    overall_miou = miou(lower, upper, *refs) if refs else None

    span = float(np.max(y) - np.min(y))
    picp_h, pinaw_h, miou_h = [], [], []
    for h in range(1, int(horizons.max()) + 1):
        idx = np.flatnonzero(horizons == h)
        if idx.size == 0:
            raise LengthMismatch(f"no intervals for horizon step {h}")
        picp_h.append(picp(lower[idx], upper[idx], y[idx]))
        pinaw_h.append(float(np.mean(upper[idx] - lower[idx]) / span))
        if refs:
            miou_h.append(miou(lower[idx], upper[idx], *(r[idx] for r in refs)))
    return EvalReport(
        picp=overall_picp,
        pinaw=overall_pinaw,
        miou=overall_miou,
        picp_per_horizon=picp_h,
        pinaw_per_horizon=pinaw_h,
        miou_per_horizon=miou_h if refs else None,
    )


def aggregate_star(reports) -> tuple[float, float, float | None]:
    """Unweighted cross-series means of picp, pinaw and (when every report
    has one) miou."""
    reports = list(reports)
    if not reports:
        raise EmptyInput("no reports to aggregate")
    picp_star = float(np.mean([r.picp for r in reports]))
    pinaw_star = float(np.mean([r.pinaw for r in reports]))
    miou_star = None
    if all(r.miou is not None for r in reports):
        miou_star = float(np.mean([r.miou for r in reports]))
    return picp_star, pinaw_star, miou_star
