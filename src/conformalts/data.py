"""Data sources: a synthetic nonstationary benchmark and CSV ingestion.

The synthetic process starts from ``WARMUP`` (40) uniform draws. From then
on each value is Gaussian around the log of the sum of the squared last
``WARMUP`` values, with a standard deviation that grows linearly in time,
so both the level and the spread drift. The Gaussian draws, and the
oracle's z, are the standard library's ``statistics.NormalDist().inv_cdf``.
Because the generator knows mu_t and sigma_t it also returns the exact
central (1 - alpha) interval per step, which downstream code uses as the
reference when judging predicted intervals.
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

# The synthetic warmup length, and the noise standard deviation c_t * mu_t
# at 1-based step t with c_t = NOISE_C0 + NOISE_SLOPE * t.
WARMUP = 40
NOISE_C0 = 0.1
NOISE_SLOPE = 0.001


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
    with c_t = NOISE_C0 + NOISE_SLOPE * t. Gaussian draws are
    ``NormalDist().inv_cdf`` of open-interval uniforms from the seeded
    generator, so the trace is reproducible bit for bit from the seed.
    """
    # here, not at the top: it loads fractions and decimal (5 ms), and CSV runs never generate
    from statistics import NormalDist
    quantile = NormalDist().inv_cdf
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
        yt = m + sd * quantile(uniforms[t - w])
        y[t] = yt
        squares.append(yt * yt)
    z = quantile(band_levels(config.oracle_alpha)[1])
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
