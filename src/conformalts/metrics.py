"""Interval quality metrics over bound arrays.

picp   fraction of realized values inside their (closed) intervals
pinaw  mean interval width, normalized by the realized value range
miou   mean intersection-over-union against reference intervals

Every metric takes intervals as aligned ``lower``/``upper`` arrays, checked
with ``framing.check_bounds``. The starred aggregates are plain unweighted
means across series, so a short series counts as much as a long one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidInterval, LengthMismatch, ZeroRange
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


def _span(y, widths) -> float:
    """The range of the realized values, pinaw's divisor. A range that the
    widths cannot be divided by (zero, overflowing, or so small that the
    widest interval over it overflows) is ZeroRange."""
    span = float(np.max(y)) - float(np.min(y))  # float arithmetic overflows to inf silently
    if span == 0.0:
        raise ZeroRange("realized values have zero range")
    if not math.isfinite(span):
        raise ZeroRange("the realized range overflows")
    if not math.isfinite(float(np.max(widths)) / span):
        raise ZeroRange(f"interval widths divided by the realized range {span!r} overflow")
    return span


def pinaw(lower, upper, y) -> float:
    """Mean interval width divided by the range of the realized values."""
    lower, upper, y = _aligned("pinaw", lower, upper, y)
    widths = upper - lower
    return float(np.mean(widths) / _span(y, widths))


def _iou(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """Elementwise intersection-over-union of checked, aligned bounds; a
    union that overflows is InvalidInterval."""
    with np.errstate(over="ignore"):
        union = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)
    if not np.isfinite(union).all():
        raise InvalidInterval("the union of an interval and its reference overflows")
    # no larger than the union, so finite
    inter = np.maximum(0.0, np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo))
    # a zero union means both intervals are the same single point
    return np.divide(inter, union, out=np.ones_like(union), where=union != 0.0)


def miou(lower, upper, ref_lower, ref_upper) -> float:
    """Mean intersection-over-union between paired intervals.

    Disjoint pairs contribute 0; identical degenerate pairs contribute 1.
    """
    return float(np.mean(_iou(*_aligned("miou", lower, upper, ref_lower, ref_upper))))


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
    per-horizon numbers restrict each metric to one step, so a step below 1,
    or one missing below the largest, is LengthMismatch. ``reference`` is
    an optional (lower, upper) pair of reference bounds. The width
    normalizer stays the full-series value range so per-horizon pinaw values
    are comparable with each other.
    """
    horizons = np.asarray(horizons, dtype=int).reshape(-1)
    refs = () if reference is None else tuple(reference)
    lower, upper, *refs, y = _aligned("evaluate", lower, upper, *refs, y)
    if horizons.size != y.size:
        raise LengthMismatch("intervals, y and horizons must align")
    widths = upper - lower
    span = _span(y, widths)
    # checked before any per-step index is built; np.unique imports numpy.ma (15 ms)
    present = sorted(set(horizons.tolist()))
    if present[0] < 1:
        raise LengthMismatch(f"horizon step {present[0]} is below 1")
    for h, step in enumerate(present, start=1):
        if step != h:
            raise LengthMismatch(f"no intervals for horizon step {h}")
    steps = [np.flatnonzero(horizons == h) for h in present]
    # every report number is the mean of one per-interval array, overall or on one step
    hits = covered(lower, upper, y)
    ious = _iou(lower, upper, *refs) if refs else None
    return EvalReport(
        picp=float(np.mean(hits)),
        pinaw=float(np.mean(widths) / span),
        miou=None if ious is None else float(np.mean(ious)),
        picp_per_horizon=[float(np.mean(hits[idx])) for idx in steps],
        pinaw_per_horizon=[float(np.mean(widths[idx]) / span) for idx in steps],
        miou_per_horizon=None if ious is None else [float(np.mean(ious[idx])) for idx in steps],
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
