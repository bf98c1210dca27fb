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
from time import perf_counter

import numpy as np

from .data import (
    SyntheticConfig,
    gen_synthetic,
    load_csv,
    numbered_rows,
    save_wide_csv,
    split_train_test,
)
from .errors import ConfigError, ConformalTSError, ParseError
from .framing import TimeSeries, covered
from .metrics import aggregate_star, evaluate
from .pipelines import FeedbackStream, run_aenbmimocqr, run_enbcqr, run_enbpi, run_mimocqr
from .quantile_net import TrainConfig
from .seeding import derive_seed

SCHEMA_VERSION = 1
METHODS = ("aenbmimocqr", "mimocqr", "enbpi", "enbcqr")
LAYOUTS = ("wide", "long")


@dataclass
class ExperimentConfig:
    """Fully resolved settings for one backtest run."""

    method: str = "aenbmimocqr"
    alpha: float = 0.1
    n_lags: int = 40
    horizon: int = 30
    n_models: int = 10
    window_size: int = 100
    n_test: int = 390
    epochs: int = 1000
    hidden: tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    cal_fraction: float = 0.5
    seed: int = 0
    workers: int = 1
    data: str | None = None
    layout: str = "wide"
    synthetic: bool = False
    length: int = 1041

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {', '.join(METHODS)}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")
        if self.n_lags < 1:
            raise ConfigError("p must be >= 1")
        if self.horizon < 1:
            raise ConfigError("H must be >= 1")
        if self.n_models < 2:
            raise ConfigError("B must be >= 2")
        if self.window_size < 1:
            raise ConfigError("T must be >= 1")
        if self.n_test < self.horizon or self.n_test % self.horizon != 0:
            raise ConfigError("n-test must be a positive multiple of H")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not self.hidden or any(w < 1 for w in self.hidden):
            raise ConfigError("hidden must be positive widths like 64,64")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"lr must be a positive finite number, got {self.learning_rate}")
        if not 0.0 < self.cal_fraction < 1.0:
            raise ConfigError("cal-fraction must be in (0, 1)")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.layout not in LAYOUTS:
            raise ConfigError(f"layout must be one of {', '.join(LAYOUTS)}")
        if self.synthetic == (self.data is not None):
            raise ConfigError("give exactly one data source: --data PATH or --synthetic")
        if self.synthetic:
            _synthetic_config(self.seed, self.length, self.alpha)

    def to_json_dict(self) -> dict:
        """The settings under their config-file keys, "-" written as "_"."""
        body = {key.replace("-", "_"): getattr(self, attr)
                for key, (attr, *_) in _RUN_KEYS.items()}
        return {**body, "hidden": list(self.hidden)}


def _synthetic_config(seed: int, length: int, alpha: float) -> SyntheticConfig:
    """The synthetic series of a seed and length, its oracle at level alpha;
    a bad value is a ConfigError."""
    try:
        return SyntheticConfig(seed=seed, length=length, oracle_alpha=alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _to_int(key):
    def conv(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key} expects an integer, got {text!r}") from None
    return conv


def _to_float(key):
    def conv(text: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key} expects a number, got {text!r}") from None
    return conv


def _to_bool(key):
    def conv(text: str) -> bool:
        low = text.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} expects true/false, got {text!r}")
    return conv


def _to_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"hidden expects comma-separated widths, got {text!r}") from None


# config-file key (flag --key) -> (ExperimentConfig attribute, converter
# from string, flag help)
_RUN_KEYS = {
    "method": ("method", str, f"one of {', '.join(METHODS)}"),
    "alpha": ("alpha", _to_float("alpha"), "miscoverage level in (0, 1)"),
    "p": ("n_lags", _to_int("p"), "lag window length"),
    "H": ("horizon", _to_int("H"), "forecast horizon"),
    "B": ("n_models", _to_int("B"), "bootstrap ensemble size"),
    "T": ("window_size", _to_int("T"), "score window capacity"),
    "n-test": ("n_test", _to_int("n-test"), "test segment length, a multiple of H"),
    "epochs": ("epochs", _to_int("epochs"), "training epochs per network"),
    "hidden": ("hidden", _to_hidden, "hidden widths, e.g. 64,64"),
    "lr": ("learning_rate", _to_float("lr"), "learning rate"),
    "cal-fraction": ("cal_fraction", _to_float("cal-fraction"),
                     "mimocqr's calibration share of the rows"),
    "seed": ("seed", _to_int("seed"), "run seed, also the synthetic series seed"),
    "workers": ("workers", _to_int("workers"), "worker processes for multi-series data"),
    "data": ("data", str, "CSV dataset path"),
    "layout": ("layout", str, f"CSV layout, one of {', '.join(LAYOUTS)}"),
    "synthetic": ("synthetic", _to_bool("synthetic"),
                  "use the built-in synthetic benchmark series"),
    "length": ("length", _to_int("length"), "synthetic series length"),
}


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and # comments are ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
        values[key] = raw
    return values


def _resolve_run_config(args) -> tuple[ExperimentConfig, str]:
    file_values = parse_config_file(args.config) if args.config else {}
    cfg = ExperimentConfig()
    for key, (attr, conv, _) in _RUN_KEYS.items():
        if key in file_values:
            setattr(cfg, attr, conv(file_values[key]))
        # an explicit flag (key "n-test" is flag dest "n_test") wins over the file
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            setattr(cfg, attr, conv(value))
    out = args.out if args.out is not None else file_values.get("out")
    if not out:
        raise ConfigError("an output directory is required (--out)")
    cfg.validate()
    return cfg, out


def _oracle_reference(lower, upper, origins, horizons):
    """A sidecar's (lower, upper) reference bounds at each forecast's target,
    0-based position ``origin + h - 2``; None if one is on the warmup (NaN or
    null). A position outside the sidecar is a ConfigError."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
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


def _series_job(payload: dict) -> dict:
    """Backtest one series; runs in a worker process for multi-series data."""
    cfg: ExperimentConfig = payload["cfg"]
    series = TimeSeries(payload["values"], id=payload["id"])
    train_ts, test_ts = split_train_test(series, cfg.n_test)
    stream = FeedbackStream(test_ts)
    run_seed = derive_seed(cfg.seed, series.id)
    tc = TrainConfig(
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        seed=run_seed,
        hidden=cfg.hidden,
    )
    common = dict(n_lags=cfg.n_lags, horizon=cfg.horizon, alpha=cfg.alpha,
                  seed=run_seed, config=tc)
    if cfg.method == "aenbmimocqr":
        result = run_aenbmimocqr(
            train_ts, stream, n_models=cfg.n_models, window_size=cfg.window_size, **common
        )
    elif cfg.method == "mimocqr":
        result = run_mimocqr(train_ts, stream, cal_fraction=cfg.cal_fraction, **common)
    elif cfg.method == "enbpi":
        result = run_enbpi(train_ts, stream, n_models=cfg.n_models, **common)
    else:
        result = run_enbcqr(train_ts, stream, n_models=cfg.n_models, **common)

    lower, upper, y = result.lower.ravel(), result.upper.ravel(), result.y.ravel()
    horizons = np.tile(np.arange(1, result.horizon + 1), result.n_blocks)
    origins = np.repeat(result.origins, result.horizon)
    oracle = payload.get("oracle")
    reference = None if oracle is None else _oracle_reference(*oracle, origins, horizons)
    report = evaluate(lower, upper, y, horizons, reference)
    rows = [
        (series.id, *row)
        for row in zip(origins.tolist(), horizons.tolist(), lower.tolist(), upper.tolist(),
                       y.tolist(), covered(lower, upper, y).astype(int).tolist())
    ]
    return {
        "id": series.id,
        "report": report,
        "rows": rows,
        "alpha_traces": None if result.alpha_traces is None else result.alpha_traces.tolist(),
        "skipped_oob_rows": result.skipped_oob_rows,
        "n_blocks": result.n_blocks,
    }


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
        series_obj, oracle = gen_synthetic(_synthetic_config(cfg.seed, cfg.length, cfg.alpha))
        jobs = [{
            "cfg": cfg, "values": series_obj.values, "id": series_obj.id,
            "oracle": (oracle.lower, oracle.upper),
        }]
    else:
        series_list = load_csv(cfg.data, cfg.layout)
        jobs = [{"cfg": cfg, "values": s.values, "id": s.id, "oracle": None}
                for s in series_list]

    if cfg.workers > 1 and len(jobs) > 1:
        # imported here: a single-series run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_series_job, jobs))
    else:
        outcomes = [_series_job(job) for job in jobs]

    summary = _summary([
        (o["id"], o["report"], {"skipped_oob_rows": o["skipped_oob_rows"],
                                "n_blocks": o["n_blocks"], "n_test": cfg.n_test})
        for o in outcomes
    ])
    results = {
        **summary,
        "config": cfg.to_json_dict(),
        "traces": {o["id"]: o["alpha_traces"] for o in outcomes},
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
        writer.writerow(["series", "origin", "h", "lower", "upper", "y", "covered"])
        # the bounds and y are Python floats, which csv writes with repr
        writer.writerows(row for o in outcomes for row in o["rows"])
    return results


def _json_array(values: np.ndarray) -> list:
    return [None if (isinstance(v, float) and math.isnan(v)) else v
            for v in (float(x) for x in values)]


def cmd_synth(seed: int, out_path, length: int = 1041, alpha: float = 0.1) -> dict:
    """Generate the benchmark series; write a wide CSV and a sidecar JSON."""
    config = _synthetic_config(seed, length, alpha)
    series, oracle = gen_synthetic(config)
    save_wide_csv([series], out_path)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "id": series.id,
        "seed": seed,
        "length": length,
        "warmup": config.warmup,
        "alpha": alpha,
        "noise_scale": config.noise_scale,
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(numbered_rows(fh))
    if len(rows) < 2:
        raise ParseError(f"{path} has no interval rows")
    header = [c.strip().lower() for c in rows[0][1]]
    required = ["origin", "h", "lower", "upper", "y"]
    missing = [c for c in required if c not in header]
    if missing:
        raise ParseError(f"intervals file lacks columns: {', '.join(missing)}")
    idx = {name: header.index(name) for name in required}
    sid_col = header.index("series") if "series" in header else None
    grouped: dict[str, dict[str, list]] = {}
    first_row: dict[tuple[str, int, int], int] = {}  # (series, origin, h) -> row
    for r, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} cells, found {len(row)}", row=r)
        sid = row[sid_col].strip() if sid_col is not None else "series"
        entry = grouped.setdefault(sid, {"origin": [], "h": [], "lower": [], "upper": [], "y": []})
        try:
            origin, h = int(row[idx["origin"]]), int(row[idx["h"]])
            lower, upper, y = (float(row[idx[name]]) for name in ("lower", "upper", "y"))
        except ValueError:
            raise ParseError("cannot parse interval row", row=r) from None
        if h < 1:
            raise ParseError(f"horizon step h must be >= 1, got {h}", row=r)
        if not math.isfinite(y):
            raise ParseError(f"realized y must be finite, got {y}", row=r)
        earlier = first_row.setdefault((sid, origin, h), r)
        if earlier != r:
            raise ParseError(
                f"series {sid!r}, origin {origin}, step {h} repeats row {earlier}", row=r)
        for name, value in zip(required, (origin, h, lower, upper, y)):
            entry[name].append(value)
    return grouped, sid_col is not None


def cmd_eval(intervals_path, oracle_path=None, out_path=None) -> dict:
    """Recompute metrics from an intervals file (plus optional sidecar).

    The sidecar's reference intervals score the series with the sidecar's
    id, or the only series of a file that names none.
    """
    grouped, keyed = _read_intervals_csv(intervals_path)
    oracle = None
    if oracle_path is not None:
        with open(oracle_path, "r", encoding="utf-8") as fh:
            oracle = json.load(fh)
        missing = [key for key in ("lower", "upper")
                   if not isinstance(oracle, dict) or not isinstance(oracle.get(key), list)]
        if missing:
            raise ConfigError(
                f"sidecar {oracle_path} has no {' or '.join(map(repr, missing))} "
                "array of reference bounds"
            )
        if len(oracle["lower"]) != len(oracle["upper"]):
            raise ConfigError(
                f"sidecar {oracle_path} has {len(oracle['lower'])} lower but "
                f"{len(oracle['upper'])} upper reference bounds"
            )
        if keyed and oracle.get("id") not in grouped:
            raise ConfigError(
                f"sidecar {oracle_path} is for series {oracle.get('id')!r}, but "
                f"{intervals_path} holds series {', '.join(map(repr, grouped))}"
            )
    entries = []
    for sid, cols in grouped.items():
        reference = None
        if oracle is not None and (not keyed or oracle.get("id") == sid):
            reference = _oracle_reference(
                oracle["lower"], oracle["upper"], cols["origin"], cols["h"])
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
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--out", required=True, help="CSV path to write")
    synth.add_argument("--length", type=int, default=1041)
    synth.add_argument("--alpha", type=float, default=0.1)

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
            cmd_synth(args.seed, args.out, length=args.length, alpha=args.alpha)
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
