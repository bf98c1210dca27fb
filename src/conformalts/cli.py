"""Command line interface.

Three subcommands:

run    backtest one method over a CSV dataset or a synthetic series and
       write results.json plus an intervals.csv into --out
synth  generate the synthetic benchmark series (CSV) and a sidecar JSON
       with the generator state and exact reference intervals
eval   recompute metrics from an intervals.csv, optionally against a
       sidecar, and print them as JSON

Exit codes: 0 on success, 2 for invalid configuration or flags, 1 for
runtime failures. Every run-affecting option can also be given in a flat
``key = value`` config file; explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import repeat
from time import perf_counter

import numpy as np

from .data import (
    WARMUP,
    SyntheticConfig,
    gen_synthetic,
    load_csv,
    parse_cell,
    read_table,
    save_wide_csv,
    split_train_test,
)
from .errors import ConfigError, ConformalTSError, ParseError, SeriesTooShort
from .framing import covered
from .metrics import aggregate_star, evaluate
from .pipelines import METHODS, FeedbackStream, RunDefaults, check_run
# the runners, each called by name in _series_job
from .pipelines import run_aenbmimocqr, run_enbcqr, run_enbpi, run_mimocqr  # noqa: F401
from .quantile_net import TrainConfig
from .seeding import derive_seed

SCHEMA_VERSION = 1
# the columns of intervals.csv, one row per forecast step
INTERVAL_COLUMNS = ("series", "origin", "h", "lower", "upper", "y", "covered")


@dataclass
class ExperimentConfig:
    """Fully resolved settings for one backtest run."""

    method: str = next(iter(METHODS))  # the adaptive method
    alpha: float = 0.1
    n_lags: int = 40
    horizon: int = 30
    n_models: int = RunDefaults.n_models
    window_size: int = RunDefaults.window_size
    n_test: int = 390
    epochs: int = TrainConfig.epochs
    hidden: tuple[int, ...] = TrainConfig.hidden
    learning_rate: float = TrainConfig.learning_rate
    cal_fraction: float = RunDefaults.cal_fraction
    seed: int = 0
    workers: int = 1
    data: str | None = None
    synthetic: bool = False
    length: int = SyntheticConfig.length

    def validate(self) -> None:
        """Check every setting; the library's own objects hold each run rule."""
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {', '.join(METHODS)}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}", "workers")
        if self.synthetic == (self.data is not None):
            raise ConfigError("give exactly one data source: --data PATH or --synthetic")
        TrainConfig(epochs=self.epochs, learning_rate=self.learning_rate, hidden=self.hidden)
        if self.synthetic:
            SyntheticConfig(seed=self.seed, length=self.length, oracle_alpha=self.alpha)
        n_train = self.length - self.n_test if self.synthetic else None
        try:
            check_run(self.method, self.n_test, n_train, n_lags=self.n_lags,
                      horizon=self.horizon, alpha=self.alpha, n_models=self.n_models,
                      window_size=self.window_size, cal_fraction=self.cal_fraction)
        except SeriesTooShort as exc:
            # the synthetic series is too short for its frame: its length is a setting
            raise ConfigError(f"length {self.length} minus n-test {self.n_test} leaves {n_train} "
                              f"values (p={self.n_lags}, H={self.horizon}): {exc}", "length")

    def to_json_dict(self) -> dict:
        """The settings under their config-file keys, "-" written as "_"."""
        body = {key.replace("-", "_"): getattr(self, attr)
                for key, (attr, *_) in _RUN_KEYS.items()}
        return {**body, "hidden": list(self.hidden)}


_EXPECTS = {int: "an integer", float: "a number", bool: "true/false",
            tuple: "comma-separated widths"}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _convert(key: str, kind: type, text: str):
    """A setting's text as its ``kind`` (str, int, float, bool, or tuple for
    comma-separated widths); a bad value is a ConfigError naming the key."""
    try:
        if kind is bool:
            return _BOOLS[text.strip().lower()]
        if kind is tuple:
            return tuple(int(part) for part in text.split(","))
        return kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{key} expects {_EXPECTS[kind]}, got {text!r}") from None


# config-file key (flag --key) -> (ExperimentConfig attribute, kind, flag help)
_RUN_KEYS = {
    "method": ("method", str, f"one of {', '.join(METHODS)}"),
    "alpha": ("alpha", float, "miscoverage level in (0, 1)"),
    "p": ("n_lags", int, "lag window length"),
    "H": ("horizon", int, "forecast horizon"),
    "B": ("n_models", int, "bootstrap ensemble size"),
    "T": ("window_size", int, "score window capacity (aenbmimocqr only)"),
    "n-test": ("n_test", int, "test segment length, a multiple of H"),
    "epochs": ("epochs", int, "training epochs per network"),
    "hidden": ("hidden", tuple, "hidden widths, e.g. 64,64"),
    "lr": ("learning_rate", float, "learning rate"),
    "cal-fraction": ("cal_fraction", float, "mimocqr's calibration share of the rows"),
    "seed": ("seed", int, "run seed, also the synthetic series seed"),
    "workers": ("workers", int, "worker processes for multi-series data"),
    "data": ("data", str, "CSV dataset path"),
    "synthetic": ("synthetic", bool, "use the built-in synthetic benchmark series"),
    "length": ("length", int, "synthetic series length"),
}


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines, each key once; blank lines and # comments are ignored."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}  # key -> line
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"config line {lineno} is not key = value: {line.strip()!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        raw = raw.strip().strip('"').strip("'")
        if key not in _RUN_KEYS and key != "out":
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigError(f"config key {key!r} repeats line {first_line[key]} (line {lineno})")
        values[key] = raw
    return values


def _resolve_run_config(args) -> tuple[ExperimentConfig, str]:
    file_values = parse_config_file(args.config) if args.config else {}
    cfg = ExperimentConfig()
    for key, (attr, kind, _) in _RUN_KEYS.items():
        if key in file_values:
            setattr(cfg, attr, _convert(key, kind, file_values[key]))
        # an explicit flag (key "n-test" is flag dest "n_test") wins over the file
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            setattr(cfg, attr, _convert(key, kind, value))
    out = args.out if args.out is not None else file_values.get("out")
    if not out:
        raise ConfigError("an output directory is required (--out)")
    try:
        cfg.validate()
    except ConfigError as exc:
        # a rule on one setting starts with its keyword (learning_rate); say its key (lr)
        key = {(attr,): key for key, (attr, *_) in _RUN_KEYS.items()}.get(exc.args[1:])
        raise exc if key is None else ConfigError(key + str(exc)[len(exc.args[1]):], key)
    return cfg, out


def _oracle_reference(lower, upper, origins, horizons):
    """A sidecar's (lower, upper) reference bounds at each forecast's target,
    0-based position ``origin + h - 2``; None if one is on the warmup (null,
    read as NaN). A position outside the sidecar is a ConfigError."""
    positions = np.asarray(origins) + np.asarray(horizons) - 2
    outside = np.flatnonzero((positions < 0) | (positions >= len(lower)))
    if outside.size:
        i = outside[0]
        raise ConfigError(
            f"the forecast at origin {origins[i]}, step {horizons[i]} targets position "
            f"{positions[i]}, outside the sidecar's {len(lower)} reference intervals"
        )
    if np.any(np.isnan(lower[positions])):
        return None
    return lower[positions], upper[positions]


def _series_job(job):
    """Backtest one ``(cfg, series, oracle bounds or None)`` job; runs in a
    worker process for multi-series data. Returns the series id, its
    EvalReport, its RunResult and the flat interval columns ``origins,
    horizons, lower, upper, y, covered`` that ``intervals.csv`` holds."""
    cfg, series, oracle = job
    train_ts, test_ts = split_train_test(series, cfg.n_test)
    stream = FeedbackStream(test_ts)
    tc = TrainConfig(epochs=cfg.epochs, learning_rate=cfg.learning_rate, hidden=cfg.hidden)
    # looked up by name at call time, so a wrapper set on cli.run_<method> is the one called
    runner = globals()[f"run_{cfg.method}"]
    result = runner(train_ts, stream, n_lags=cfg.n_lags, horizon=cfg.horizon, alpha=cfg.alpha,
                    seed=derive_seed(cfg.seed, series.id), config=tc,
                    **{field: getattr(cfg, field) for field in METHODS[cfg.method][1]})

    lower, upper, y = result.lower.ravel(), result.upper.ravel(), result.y.ravel()
    horizons = np.tile(np.arange(1, result.horizon + 1), result.n_blocks)
    origins = np.repeat(result.origins, result.horizon)
    reference = None if oracle is None else _oracle_reference(*oracle, origins, horizons)
    report = evaluate(lower, upper, y, horizons, reference)
    columns = (origins, horizons, lower, upper, y, covered(lower, upper, y).astype(int))
    return series.id, report, result, columns


def _summary(entries) -> dict:
    """``schema_version``, ``per_series`` and ``aggregates`` of the
    (series id, EvalReport, extra fields) entries."""
    picp_star, pinaw_star, miou_star = aggregate_star([report for _, report, _ in entries])
    return {
        "schema_version": SCHEMA_VERSION,
        "per_series": {sid: {**asdict(report), **extra} for sid, report, extra in entries},
        "aggregates": {"picp_star": picp_star, "pinaw_star": pinaw_star, "miou_star": miou_star},
    }


def cmd_run(cfg: ExperimentConfig, out_dir) -> dict:
    """Run the configured backtest and write results.json + intervals.csv."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = perf_counter()
    if cfg.synthetic:
        series, oracle = gen_synthetic(
            SyntheticConfig(seed=cfg.seed, length=cfg.length, oracle_alpha=cfg.alpha))
        jobs = [(cfg, series, (oracle.lower, oracle.upper))]
    else:
        jobs = [(cfg, series, None) for series in load_csv(cfg.data)]
    # an --out that cannot be a directory fails here, before any net trains;
    # it is made only to write the two files, so a run that fails writes nothing.
    # The walk keeps each "..", for the OS to resolve: afile/../run stops at afile
    path = os.path.join(os.getcwd(), out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK)):
        raise OSError(f"--out {out_dir}: {path} is not a writable directory")
    if cfg.workers > 1 and len(jobs) > 1:
        # imported here: a single-series run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        # fork starts every worker up front, so start no more than one per series
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(jobs))) as pool:
            outcomes = list(pool.map(_series_job, jobs))
    else:
        outcomes = [_series_job(job) for job in jobs]

    summary = _summary([
        (sid, report, {"skipped_oob_rows": result.skipped_oob_rows,
                       "n_blocks": result.n_blocks, "n_test": cfg.n_test})
        for sid, report, result, _ in outcomes
    ])
    results = {
        **summary,
        "config": cfg.to_json_dict(),
        "traces": {sid: None if result.alpha_traces is None else result.alpha_traces.tolist()
                   for sid, _, result, _ in outcomes},
        "timestamp": {
            "run_at": started,
            "wall_time_sec": perf_counter() - t0,
        },
    }
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    intervals_path = os.path.join(out_dir, "intervals.csv")
    with open(intervals_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(INTERVAL_COLUMNS)
        # the bounds and y are Python floats, which csv writes with repr
        for sid, _, _, columns in outcomes:
            writer.writerows(zip(repeat(sid), *(c.tolist() for c in columns)))
    return results


def _json_array(values: np.ndarray) -> list:
    return [None if math.isnan(v) else v for v in map(float, values)]


def cmd_synth(seed: int, out_path, length: int = SyntheticConfig.length,
              alpha: float = SyntheticConfig.oracle_alpha) -> dict:
    """Generate the benchmark series; write a wide CSV and a sidecar JSON."""
    series, oracle = gen_synthetic(SyntheticConfig(seed=seed, length=length, oracle_alpha=alpha))
    save_wide_csv([series], out_path)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "id": series.id,
        "seed": seed,
        "length": length,
        "warmup": WARMUP,
        "alpha": alpha,
        "mu": _json_array(oracle.mu),
        "sigma": _json_array(oracle.sigma),
        "lower": _json_array(oracle.lower),
        "upper": _json_array(oracle.upper),
    }
    sidecar_path = sidecar_path_for(out_path)
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar


def sidecar_path_for(csv_path) -> str:
    text = str(csv_path)
    if text.endswith(".csv"):
        return text[:-4] + ".oracle.json"
    return text + ".oracle.json"


def _read_intervals_csv(path):
    """Interval columns grouped by series id, and whether the file names its
    series (a file without a ``series`` column is one series)."""
    header_line, names, body = read_table(path)
    header = [name.lower() for name in names]
    for col, name in enumerate(header, start=1):
        first = header.index(name) + 1
        if first != col:
            raise ParseError(f"names {names[first - 1]!r} (col {first}) and {names[col - 1]!r} "
                             "differ only in case in header", row=header_line, col=col)
    # series is optional and covered is recomputed
    kinds = dict(zip(INTERVAL_COLUMNS[1:-1], (int, int, float, float, float)))
    missing = [name for name in kinds if name not in header]
    if missing:
        raise ParseError(f"intervals file lacks columns: {', '.join(missing)}")
    cols = {name: header.index(name) + 1 for name in kinds}
    sid_col = header.index("series") + 1 if "series" in header else None
    grouped: dict[str, dict[str, list]] = {}
    first_row: dict[tuple[str, int, int], int] = {}  # (series, origin, h) -> row
    for r, cells in body:
        sid = "series" if sid_col is None else parse_cell(cells, r, sid_col, str, "series id")
        values = [parse_cell(cells, r, cols[name], kind, f"{name} cell")
                  for name, kind in kinds.items()]
        origin, h = values[:2]
        if h < 1:
            raise ParseError(f"horizon step h must be >= 1, got {h}", row=r, col=cols["h"])
        earlier = first_row.setdefault((sid, origin, h), r)
        if earlier != r:
            raise ParseError(
                f"series {sid!r}, origin {origin}, step {h} repeats row {earlier}", row=r)
        entry = grouped.setdefault(sid, {name: [] for name in kinds})
        for name, value in zip(kinds, values):
            entry[name].append(value)
    return grouped, sid_col is not None


def _is_bound(value) -> bool:
    """Whether a parsed sidecar entry is null or a JSON number (int or float,
    not bool) with a finite float value."""
    try:
        return value is None or (type(value) in (int, float) and math.isfinite(value))
    except OverflowError:  # an integer beyond float range
        return False


def cmd_eval(intervals_path, oracle_path=None, out_path=None) -> dict:
    """Recompute metrics from an intervals file (plus optional sidecar).

    The sidecar's reference intervals score the series with the sidecar's
    id, or the only series of a file that names none.
    """
    grouped, keyed = _read_intervals_csv(intervals_path)
    oracle = None
    if oracle_path is not None:
        with open(oracle_path, "r", encoding="utf-8-sig") as fh:
            try:
                oracle = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"sidecar {oracle_path} is not valid JSON: {exc}") from None
        missing = [key for key in ("lower", "upper")
                   if not isinstance(oracle, dict) or not isinstance(oracle.get(key), list)]
        if missing:
            raise ConfigError(f"sidecar {oracle_path} has no {' or '.join(map(repr, missing))} "
                              "array of reference bounds")
        lower, upper = oracle["lower"], oracle["upper"]
        if len(lower) != len(upper):
            raise ConfigError(f"sidecar {oracle_path} has {len(lower)} lower but "
                              f"{len(upper)} upper reference bounds")
        if not (all(map(_is_bound, lower + upper))
                and [v is None for v in lower] == [v is None for v in upper]):
            raise ConfigError(f"sidecar {oracle_path} needs reference bounds that are numbers, "
                              "or null on the warmup in both arrays")
        bounds = np.array([lower, upper], dtype=float)  # null reads as NaN
        # an id that is not a string (a JSON list, say) names no series
        if keyed and not (isinstance(oracle.get("id"), str) and oracle["id"] in grouped):
            raise ConfigError(
                f"sidecar {oracle_path} is for series {oracle.get('id')!r}, but "
                f"{intervals_path} holds series {', '.join(map(repr, grouped))}"
            )
    entries = []
    for sid, cols in grouped.items():
        reference = None
        if oracle is not None and (not keyed or oracle.get("id") == sid):
            reference = _oracle_reference(*bounds, cols["origin"], cols["h"])
        report = evaluate(cols["lower"], cols["upper"], cols["y"], cols["h"], reference)
        entries.append((sid, report, {}))
    payload = _summary(entries)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conformalts",
        description="Adaptive conformal prediction intervals for multi-step forecasting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="backtest a method and write results")
    run.add_argument("--config", help="flat key = value config file")
    # every flag is a string, converted and checked with the config file's values
    for key, (_, _, help_text) in _RUN_KEYS.items():
        if key == "synthetic":
            run.add_argument("--synthetic", action="store_const", const="true", help=help_text)
        else:
            run.add_argument(f"--{key}", help=help_text)
    run.add_argument("--out", help="output directory")

    synth = sub.add_parser("synth", help="generate the synthetic benchmark")
    # strings, converted and checked as run converts them
    synth.add_argument("--seed", required=True)
    synth.add_argument("--out", required=True, help="CSV path to write")
    synth.add_argument("--length", default=str(SyntheticConfig.length))
    synth.add_argument("--alpha", default=str(SyntheticConfig.oracle_alpha))

    ev = sub.add_parser("eval", help="recompute metrics from an intervals file")
    ev.add_argument("--intervals", required=True)
    ev.add_argument("--oracle", help="sidecar JSON with reference intervals")
    ev.add_argument("--out", help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg, out_dir = _resolve_run_config(args)
            cmd_run(cfg, out_dir)
        elif args.command == "synth":
            seed, length, alpha = (_convert(key, _RUN_KEYS[key][1], getattr(args, key))
                                   for key in ("seed", "length", "alpha"))
            cmd_synth(seed, args.out, length=length, alpha=alpha)
        else:
            cmd_eval(args.intervals, args.oracle, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConformalTSError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
