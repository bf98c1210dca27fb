"""Data sources: a synthetic nonstationary benchmark and CSV ingestion.

The synthetic process starts from ``WARMUP`` (40) uniform draws. From then
on each value is Gaussian around the log of the sum of the squared last
``WARMUP`` values, with a standard deviation that grows linearly in time,
so both the level and the spread drift. Because the generator knows mu_t
and sigma_t it also returns the exact central (1 - alpha) interval per
step, which downstream code uses as the reference when judging predicted
intervals.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyFile,
    MissingValue,
    NonPositiveMean,
    ParseError,
    SeriesTooShort,
)
from .framing import TimeSeries, band_levels

# Rational approximation of the standard normal quantile (Acklam's
# coefficients, absolute relative error below 1.2e-9).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425

# The synthetic warmup length, and the noise standard deviation c_t * mu_t
# at 1-based step t with c_t = NOISE_C0 + NOISE_SLOPE * t.
WARMUP = 40
NOISE_C0 = 0.1
NOISE_SLOPE = 0.001


def norm_quantile(p: float) -> float:
    """Standard normal quantile at probability p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p > 1.0 - _P_LOW:
        # the lower tail mirrored, bit for bit: here 1 - p is exact and below _P_LOW
        return -norm_quantile(1.0 - p)
    q = p - 0.5
    r = q * q
    return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
        (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic benchmark series; a bad one is a ConfigError."""

    seed: int
    length: int = 1041
    oracle_alpha: float = 0.1

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", "seed")
        if self.length <= WARMUP:
            raise ConfigError(f"length must exceed the warmup of {WARMUP}, got {self.length}",
                              "length")
        band_levels(self.oracle_alpha)


@dataclass(frozen=True)
class OracleIntervalSet:
    """Exact per-step central intervals of the generating process.

    Arrays are aligned with the series; entries before the first generated
    step (the warmup region) are NaN.
    """

    mu: np.ndarray
    sigma: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def gen_synthetic(config: SyntheticConfig) -> tuple[TimeSeries, OracleIntervalSet]:
    """Generate one benchmark series and its oracle intervals.

    y_t ~ Normal(mu_t, sd_t) for t > WARMUP (1-based), where mu_t is the log
    of the sum of the squared previous ``WARMUP`` values and sd_t = c_t * mu_t
    with c_t = NOISE_C0 + NOISE_SLOPE * t. Gaussian draws are the normal
    quantile transform of open-interval uniforms from the seeded generator,
    so the trace is reproducible bit for bit from the seed.
    """
    rng = np.random.default_rng(config.seed)
    n, w = config.length, WARMUP
    y = np.empty(n, dtype=float)
    y[:w] = rng.random(w)
    # uniforms on (0, 1), both endpoints excluded, one per generated step
    uniforms = (rng.integers(1, 2**53, size=n - w) / 2**53).tolist()
    squares = [v * v for v in y[:w].tolist()]
    mu = np.full(n, np.nan)
    sigma = np.full(n, np.nan)
    for t in range(w, n):
        m = math.log(math.fsum(squares[t - w:t]))
        if m <= 0.0:
            raise NonPositiveMean(f"mu_{t + 1} = {m} <= 0; cannot scale noise")
        sd = (NOISE_C0 + NOISE_SLOPE * (t + 1)) * m
        mu[t] = m
        sigma[t] = sd
        yt = m + sd * norm_quantile(uniforms[t - w])
        y[t] = yt
        squares.append(yt * yt)
    z = norm_quantile(band_levels(config.oracle_alpha)[1])
    oracle = OracleIntervalSet(mu=mu, sigma=sigma, lower=mu - z * sigma, upper=mu + z * sigma)
    return TimeSeries(y, id=f"synthetic-{config.seed}"), oracle


def split_train_test(series: TimeSeries, n_test: int) -> tuple[TimeSeries, TimeSeries]:
    """Split off the last ``n_test`` observations as the test segment."""
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    if n_test >= len(series):
        raise SeriesTooShort(
            f"series {series.id!r} has {len(series)} values; n_test={n_test} leaves no training data"
        )
    return (
        TimeSeries(series.values[: len(series) - n_test], id=series.id),
        TimeSeries(series.values[len(series) - n_test:], id=series.id),
    )


def read_table(path):
    """The header line, the stripped header names and the body rows
    ``(line, cells)`` of a CSV file, rows numbered by their line.

    A leading UTF-8 byte-order mark is not part of the first name. Blank
    lines are skipped, but a line of delimiters is a row of blank cells, and
    in a one-column table a blank line before the last row is that row's
    blank cell. A blank or repeated name, or a row whose width is not the
    header's, is a ParseError at its line; no body row is EmptyFile.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        lines = [(reader.line_num, cells) for cells in reader]
    filled = [i for i, (_, cells) in enumerate(lines)
              if len(cells) > 1 or any(cell.strip() for cell in cells)]
    if len(filled) < 2:
        raise EmptyFile(f"{path} has no data rows")
    header_line, header = lines[filled[0]]
    names = [cell.strip() for cell in header]
    first_col: dict[str, int] = {}
    for col, name in enumerate(names, start=1):
        if name == "":
            raise ParseError("blank name in header", row=header_line, col=col)
        if first_col.setdefault(name, col) != col:
            raise ParseError(f"repeated name {name!r} in header", row=header_line, col=col)
    kept = range(filled[0] + 1, filled[-1] + 1) if len(names) == 1 else filled[1:]
    # a blank line kept in a one-column body is its one blank cell
    body = [(lines[i][0], lines[i][1] or [""]) for i in kept]
    for r, cells in body:
        if len(cells) != len(names):
            raise ParseError(f"expected {len(names)} cells, found {len(cells)}", row=r)
    return header_line, names, body


def parse_cell(cells, row: int, col: int, kind: type, what: str):
    """Cell ``col`` (1-based) of a row as ``kind``: str (the stripped text),
    int or a finite float. A blank cell is MissingValue("blank <what>") and
    a bad one a ParseError, both at (row, col)."""
    cell = cells[col - 1]
    text = cell.strip()
    if text == "":
        raise MissingValue(f"blank {what}", row=row, col=col)
    if kind is str:
        return text
    try:
        value = kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ParseError(f"cannot parse {cell!r} as {expected}", row=row, col=col) from None
    if kind is float and not math.isfinite(value):
        raise ParseError(f"{cell!r} is not a finite number", row=row, col=col)
    return value


def load_csv(path) -> list[TimeSeries]:
    """Read series from a CSV file in the layout its header names.

    A header of (id, t, value), in any case, is the long layout: rows may
    arrive in any order and are sorted by t within each id, whose time
    indices must be consecutive. Any other header is the wide layout: a
    row of series ids, one series per column, all the same length.
    """
    _, names, body = read_table(path)

    if [name.lower() for name in names] != ["id", "t", "value"]:
        rows = [[parse_cell(cells, r, c, float, "cell") for c in range(1, len(names) + 1)]
                for r, cells in body]
        return [TimeSeries(np.asarray(col), id=i) for i, col in zip(names, zip(*rows))]

    by_id: dict[str, list[tuple[int, float, int]]] = {}  # id -> (t, value, line)
    first_line: dict[tuple[str, int], int] = {}  # (series, t) -> line
    for r, cells in body:
        sid = parse_cell(cells, r, 1, str, "series id")
        t = parse_cell(cells, r, 2, int, "time index")
        value = parse_cell(cells, r, 3, float, "cell")
        earlier = first_line.setdefault((sid, t), r)
        if earlier != r:
            raise ParseError(
                f"duplicate time index {t} for series {sid!r} repeats row {earlier}", row=r)
        by_id.setdefault(sid, []).append((t, value, r))
    out = []
    for sid, entries in by_id.items():
        entries.sort()  # by t, which is unique within a series
        for (t_prev, _, _), (t, _, r) in zip(entries, entries[1:]):
            if t != t_prev + 1:
                raise MissingValue(f"series {sid!r} has no value at t {t_prev + 1}", row=r)
        out.append(TimeSeries(np.asarray([v for _, v, _ in entries]), id=sid))
    return out


def save_wide_csv(series_list, path) -> None:
    """Write equally long series as a wide CSV, full float precision."""
    series_list = list(series_list)
    if not series_list:
        raise EmptyFile("nothing to write")
    lengths = {len(s) for s in series_list}
    if len(lengths) != 1:
        raise ValueError("wide layout requires equal-length series")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([s.id for s in series_list])
        # the cells are Python floats, which csv writes with repr
        writer.writerows(zip(*(s.values.tolist() for s in series_list)))
