"""Interval quality metrics.

picp   fraction of realized values inside their (closed) intervals
pinaw  mean interval width, normalized by the realized value range
miou   mean intersection-over-union against reference intervals

The starred aggregates are plain unweighted means across series, so a short
series counts as much as a long one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, LengthMismatch, ZeroRange
from .framing import PredictionInterval


def _bounds(intervals) -> tuple[np.ndarray, np.ndarray]:
    lower = np.asarray([iv.lower for iv in intervals], dtype=float)
    upper = np.asarray([iv.upper for iv in intervals], dtype=float)
    return lower, upper


def picp(intervals, y) -> float:
    """Prediction interval coverage probability: mean of 1{lower <= y <= upper}."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if len(intervals) != y.size:
        raise LengthMismatch(f"{len(intervals)} intervals vs {y.size} values")
    if y.size == 0:
        raise EmptyInput("picp needs at least one interval")
    lower, upper = _bounds(intervals)
    return float(np.mean((lower <= y) & (y <= upper)))


def pinaw(intervals, y) -> float:
    """Mean interval width divided by the range of the realized values."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if len(intervals) != y.size:
        raise LengthMismatch(f"{len(intervals)} intervals vs {y.size} values")
    if y.size == 0:
        raise EmptyInput("pinaw needs at least one interval")
    span = float(np.max(y) - np.min(y))
    if span == 0.0:
        raise ZeroRange("realized values have zero range")
    lower, upper = _bounds(intervals)
    return float(np.mean(upper - lower) / span)


def miou(intervals, reference) -> float:
    """Mean intersection-over-union between paired intervals.

    Disjoint pairs contribute 0; identical degenerate pairs contribute 1.
    """
    if len(intervals) != len(reference):
        raise LengthMismatch(f"{len(intervals)} intervals vs {len(reference)} references")
    if len(intervals) == 0:
        raise EmptyInput("miou needs at least one pair")
    a_lo, a_hi = _bounds(intervals)
    b_lo, b_hi = _bounds(reference)
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


def evaluate(intervals, y, horizons, reference=None) -> EvalReport:
    """Build an EvalReport from flat aligned sequences.

    ``horizons`` gives the 1-based forecast step of each interval; the
    per-horizon numbers restrict each metric to one step. The width
    normalizer stays the full-series value range so per-horizon pinaw values
    are comparable with each other.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    horizons = np.asarray(horizons, dtype=int).reshape(-1)
    if not (len(intervals) == y.size == horizons.size):
        raise LengthMismatch("intervals, y and horizons must align")
    if reference is not None and len(reference) != len(intervals):
        raise LengthMismatch("reference intervals must align with intervals")
    overall_picp = picp(intervals, y)
    overall_pinaw = pinaw(intervals, y)
    overall_miou = miou(intervals, reference) if reference is not None else None

    span = float(np.max(y) - np.min(y))
    picp_h, pinaw_h, miou_h = [], [], []
    for h in range(1, int(horizons.max()) + 1):
        idx = np.flatnonzero(horizons == h)
        if idx.size == 0:
            raise LengthMismatch(f"no intervals for horizon step {h}")
        sub = [intervals[i] for i in idx]
        picp_h.append(picp(sub, y[idx]))
        lower, upper = _bounds(sub)
        pinaw_h.append(float(np.mean(upper - lower) / span))
        if reference is not None:
            miou_h.append(miou(sub, [reference[i] for i in idx]))
    return EvalReport(
        picp=overall_picp,
        pinaw=overall_pinaw,
        miou=overall_miou,
        picp_per_horizon=picp_h,
        pinaw_per_horizon=pinaw_h,
        miou_per_horizon=miou_h if reference is not None else None,
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
