"""Output check and interval-quality scores for one ``conformalts run``.

``check_run`` reads ``results.json`` and ``intervals.csv`` from a run's
output directory and compares them with what the run was asked to do and
with the input series. It never trusts the program's own numbers: coverage is
recomputed from the bounds, and every realized value is matched against the
generated input.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

INTERVAL_HEADER = ["series", "origin", "h", "lower", "upper", "y", "covered"]


@dataclass
class RunCheck:
    """Outcome of checking one run's outputs."""

    problems: list[str] = field(default_factory=list)
    n_intervals: int = 0
    output_bytes: int = 0
    results_sha256: str = ""
    intervals_sha256: str = ""
    # per series: |PICP - (1 - alpha)| and interval score / realized range
    coverage_gaps: list[float] = field(default_factory=list)
    interval_scores: list[float] = field(default_factory=list)


def read_wide_csv(path: str) -> dict[str, np.ndarray]:
    """Series of a wide CSV by id, parsed independently of the package."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    ids = rows[0]
    cols = np.array([[float(c) for c in r] for r in rows[1:]], dtype=float)
    return {sid: cols[:, j] for j, sid in enumerate(ids)}


def results_digest(results: dict) -> str:
    """sha256 of results.json with its ``timestamp`` block removed."""
    body = {k: v for k, v in results.items() if k != "timestamp"}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def interval_score(lower, upper, y, alpha: float) -> np.ndarray:
    """Winkler / Gneiting-Raftery score of central (1 - alpha) intervals."""
    below = np.maximum(lower - y, 0.0)
    above = np.maximum(y - upper, 0.0)
    return (upper - lower) + (2.0 / alpha) * (below + above)


def check_run(
    out_dir: str,
    *,
    method: str,
    alpha: float,
    horizon: int,
    n_test: int,
    series: dict[str, np.ndarray],
) -> RunCheck:
    """Check one run's outputs against its request and its input series."""
    rc = RunCheck()
    results_path = os.path.join(out_dir, "results.json")
    intervals_path = os.path.join(out_dir, "intervals.csv")
    try:
        with open(results_path, "rb") as fh:
            raw = fh.read()
        with open(intervals_path, "rb") as fh:
            raw_intervals = fh.read()
    except OSError as exc:
        rc.problems.append(f"missing output: {exc}")
        return rc
    rc.output_bytes = len(raw) + len(raw_intervals)
    rc.intervals_sha256 = hashlib.sha256(raw_intervals).hexdigest()
    try:
        results = json.loads(raw)
    except ValueError as exc:
        rc.problems.append(f"results.json is not JSON: {exc}")
        return rc
    rc.results_sha256 = results_digest(results)

    config = results.get("config", {})
    if config.get("method") != method or config.get("n_test") != n_test or config.get("H") != horizon:
        rc.problems.append(f"results.json config does not match the request: {config}")
    per_series = results.get("per_series", {})
    if sorted(per_series) != sorted(series):
        rc.problems.append(f"series ids {sorted(per_series)} != {sorted(series)}")
        return rc

    rows = list(csv.reader(raw_intervals.decode("utf-8").splitlines()))
    if not rows or rows[0] != INTERVAL_HEADER:
        rc.problems.append(f"intervals.csv header is {rows[:1]}")
        return rc
    body = rows[1:]
    rc.n_intervals = len(body)
    if len(body) != n_test * len(series):
        rc.problems.append(f"{len(body)} interval rows, expected {n_test} x {len(series)}")
        return rc
    try:
        sid = np.array([r[0] for r in body])
        origin = np.array([int(r[1]) for r in body])
        h = np.array([int(r[2]) for r in body])
        lower, upper, y = (np.array([float(r[k]) for r in body]) for k in (3, 4, 5))
        covered = np.array([int(r[6]) for r in body])
    except (ValueError, IndexError) as exc:
        rc.problems.append(f"unparsable interval row: {exc}")
        return rc

    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        rc.problems.append("non-finite interval bound")
    if np.any(lower > upper):
        rc.problems.append(f"{int(np.sum(lower > upper))} intervals with lower > upper")
    inside = (lower <= y) & (y <= upper)
    if not np.array_equal(covered, inside.astype(int)):
        rc.problems.append("covered column disagrees with the bounds")

    n_blocks = n_test // horizon
    for name, values in series.items():
        mask = sid == name
        if int(mask.sum()) != n_test:
            rc.problems.append(f"series {name}: {int(mask.sum())} rows, expected {n_test}")
            continue
        train_len = values.size - n_test
        expect_origin = np.repeat(train_len + 1 + horizon * np.arange(n_blocks), horizon)
        expect_h = np.tile(np.arange(1, horizon + 1), n_blocks)
        if not (np.array_equal(origin[mask], expect_origin) and np.array_equal(h[mask], expect_h)):
            rc.problems.append(f"series {name}: origins or steps out of order")
            continue
        if not np.array_equal(y[mask], values[origin[mask] + h[mask] - 2]):
            rc.problems.append(f"series {name}: realized values differ from the input series")
        picp = float(np.mean(inside[mask]))
        reported = per_series[name].get("picp")
        if not isinstance(reported, float) or not math.isclose(picp, reported, rel_tol=0, abs_tol=1e-12):
            rc.problems.append(f"series {name}: reported picp {reported} != recomputed {picp}")
        if per_series[name].get("n_blocks") != n_blocks:
            rc.problems.append(f"series {name}: n_blocks {per_series[name].get('n_blocks')}")
        ys = y[mask]
        rc.coverage_gaps.append(abs(picp - (1.0 - alpha)))
        score = interval_score(lower[mask], upper[mask], ys, alpha)
        rc.interval_scores.append(float(np.mean(score) / (np.max(ys) - np.min(ys))))
    return rc
