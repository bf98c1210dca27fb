import concurrent.futures
import inspect
import json
import os
import re

import numpy as np
import pytest

from conformalts import cli, pipelines
from conformalts.cli import (
    _RUN_KEYS,
    ExperimentConfig,
    _resolve_run_config,
    build_parser,
    cmd_eval,
    cmd_run,
    cmd_synth,
    main,
    parse_config_file,
    sidecar_path_for,
)
from conformalts.data import SyntheticConfig, gen_synthetic, load_csv, save_wide_csv
from conformalts.errors import ConfigError, InvalidInterval, MissingValue, ParseError
from conformalts.framing import TimeSeries

FAST = dict(
    alpha=0.1, n_lags=5, horizon=2, n_models=2, window_size=20, n_test=10,
    epochs=4, hidden=(6,), synthetic=True, length=120, seed=3,
)


def fast_config(**overrides):
    kw = dict(FAST)
    kw.update(overrides)
    return ExperimentConfig(**kw)


@pytest.fixture
def trained(monkeypatch):
    """The nets trained while it is in use; training any fails the test."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a net was trained")

    for name in ("train", "mse_train"):
        monkeypatch.setattr(pipelines, name, spy)
    return calls


def read_results(out_dir):
    with open(os.path.join(out_dir, "results.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestExperimentConfig:
    def test_defaults_mirror_benchmark_settings(self):
        cfg = ExperimentConfig()
        assert cfg.method == "aenbmimocqr"
        assert (cfg.alpha, cfg.n_lags, cfg.horizon) == (0.1, 40, 30)
        assert (cfg.n_models, cfg.window_size, cfg.n_test) == (10, 100, 390)

    def test_run_defaults_are_the_runners_defaults(self):
        # the method table is the library's, and names each runner's own settings:
        # its keyword-only parameters but the common and the injected ones
        cfg = ExperimentConfig()
        assert cli.METHODS is pipelines.METHODS
        common = {"n_lags", "horizon", "alpha", "seed", "config",
                  "ensembles", "models", "gamma_override"}
        attrs = {attr for attr, *_ in _RUN_KEYS.values()}
        checked = set()
        for method, (_, settings) in pipelines.METHODS.items():
            params = inspect.signature(getattr(pipelines, f"run_{method}")).parameters
            own = {name for name, param in params.items() if param.kind is param.KEYWORD_ONLY}
            assert own - common == set(settings), method
            for name in settings:
                assert name in attrs, (method, name)  # a run key sets it
                assert params[name].default == getattr(cfg, name), (method, name)
                checked.add(name)
        assert checked == {"n_models", "window_size", "cal_fraction"}

    def test_validate_catches_bad_values(self):
        for overrides in (
            dict(method="magic"),
            dict(alpha=1.0),
            dict(alpha=1e-17),       # 1 - alpha / 2 rounds to 1.0
            dict(n_lags=0),
            dict(horizon=0),
            dict(window_size=0),
            dict(epochs=0),
            dict(hidden=(0,)),
            dict(hidden=()),
            dict(n_models=1),
            dict(n_test=7),          # not a multiple of horizon=2
            dict(cal_fraction=0.0),
            dict(cal_fraction=1.0),  # mimocqr would have no training rows
            dict(workers=0),
            dict(synthetic=False),   # no data source at all
            dict(data="x.csv"),      # two data sources
            dict(length=40),
            dict(seed=-1),           # numpy cannot seed a synthetic series with it
            # length minus n-test leaves fewer training values than two frame
            # rows span: p + H + 1 = 8 (MIMO) or p + 2 = 7 (recursive)
            dict(n_test=114),
            dict(method="mimocqr", n_test=114),
            dict(method="enbpi", n_test=116),
            dict(method="enbcqr", n_test=116),
            dict(length=121, n_test=114),
            dict(method="mimocqr", length=121, n_test=114),
            dict(method="enbpi", n_test=114),
            dict(method="enbcqr", n_test=114),
            # two frame rows, but 0.3 of them calibrates none
            dict(method="mimocqr", length=122, n_test=114, cal_fraction=0.3),
            dict(n_test=130),        # more test values than the series has
        ):
            with pytest.raises(ConfigError):
                fast_config(**overrides).validate()

    def test_fast_config_is_valid(self):
        fast_config().validate()

    # one bad value per run rule, with the method whose runner checks it
    ONE_TEXT = [dict(n_lags=0), dict(horizon=0), dict(n_models=1), dict(window_size=0),
                dict(n_test=7), dict(alpha=1.0), dict(method="mimocqr", cal_fraction=0.0),
                dict(method="mimocqr", cal_fraction=1.0)]

    @pytest.mark.parametrize("overrides", ONE_TEXT, ids=["p", "H", "B", "T", "n-test", "alpha",
                                                         "cal-fraction-0", "cal-fraction-1"])
    def test_validate_and_the_runner_give_one_text(self, trained, rng, overrides):
        cfg = fast_config(**overrides)
        with pytest.raises(ConfigError) as checked:
            cfg.validate()
        runner = getattr(pipelines, f"run_{cfg.method}")
        with pytest.raises(ConfigError) as ran:
            runner(TimeSeries(rng.uniform(size=40)),
                   pipelines.FeedbackStream(rng.uniform(size=cfg.n_test)),
                   n_lags=cfg.n_lags, horizon=cfg.horizon, alpha=cfg.alpha,
                   **{name: getattr(cfg, name) for name in pipelines.METHODS[cfg.method][1]})
        assert str(ran.value) == str(checked.value)
        assert trained == []

    def test_negative_seed_allowed_for_csv_data(self):
        # a CSV run only hashes the seed into derived seeds
        fast_config(seed=-1, synthetic=False, data="x.csv").validate()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_lr_rejected_before_training(self, tmp_path, capsys, lr):
        with pytest.raises(ConfigError, match=f"learning_rate .*got {lr}"):
            fast_config(learning_rate=float(lr)).validate()
        out = tmp_path / "run"
        assert main(["run", "--synthetic", "--method", "mimocqr", "--epochs", "3",
                     f"--lr={lr}", "--out", str(out)]) == 2
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"lr = {lr}\n")
        assert main(["run", "--config", str(cfg_file), "--synthetic", "--method", "mimocqr",
                     "--epochs", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the CLI names the key, lr, where the library names its keyword
        assert err.count(f"error: lr must be positive and finite, got {lr}") == 2
        assert not out.exists()


class TestCmdRun:
    def test_results_schema(self, tmp_path):
        out = str(tmp_path / "run")
        results = cmd_run(fast_config(), out)
        assert set(results.keys()) == {
            "schema_version", "config", "per_series", "aggregates", "traces", "timestamp",
        }
        assert results["schema_version"] == 1
        assert set(results["timestamp"].keys()) == {"run_at", "wall_time_sec"}
        assert set(results["aggregates"].keys()) == {"picp_star", "pinaw_star", "miou_star"}
        (series_report,) = results["per_series"].values()
        assert 0.0 <= series_report["picp"] <= 1.0
        assert len(series_report["picp_per_horizon"]) == 2
        assert series_report["n_blocks"] == 5
        on_disk = read_results(out)
        assert on_disk == results
        assert os.path.exists(os.path.join(out, "intervals.csv"))

    def test_synthetic_run_reports_miou(self, tmp_path):
        results = cmd_run(fast_config(), str(tmp_path / "run"))
        (series_report,) = results["per_series"].values()
        assert series_report["miou"] is not None
        assert 0.0 <= series_report["miou"] <= 1.0
        assert results["aggregates"]["miou_star"] == series_report["miou"]

    def test_adaptive_traces_recorded(self, tmp_path):
        results = cmd_run(fast_config(), str(tmp_path / "run"))
        (trace,) = results["traces"].values()
        trace = np.asarray(trace)
        assert trace.shape == (2, 6)  # horizon rows, n_blocks + 1 columns
        np.testing.assert_allclose(trace[:, 0], 0.1)

    def test_frozen_method_has_no_trace(self, tmp_path):
        results = cmd_run(fast_config(method="mimocqr"), str(tmp_path / "run"))
        (trace,) = results["traces"].values()
        assert trace is None

    @pytest.mark.parametrize("method", ["enbpi", "enbcqr"])
    def test_recursive_methods_ignore_window_size(self, tmp_path, method):
        # T caps aenbmimocqr's per-step windows; the recursive methods slide
        # all of their out-of-bag scores, about 100 here
        written = []
        for T in (5, 100):
            cmd_run(fast_config(method=method, window_size=T), str(tmp_path / str(T)))
            written.append((tmp_path / str(T) / "intervals.csv").read_bytes())
        assert written[0] == written[1]

    def test_repeat_run_identical_but_for_timestamp(self, tmp_path):
        a = cmd_run(fast_config(), str(tmp_path / "a"))
        b = cmd_run(fast_config(), str(tmp_path / "b"))
        del a["timestamp"], b["timestamp"]
        assert a == b

    def test_csv_data_source(self, tmp_path, rng):
        data = tmp_path / "series.csv"
        save_wide_csv(
            [TimeSeries(rng.normal(size=60).cumsum(), id=f"s{i}") for i in range(2)], data
        )
        cfg = fast_config(synthetic=False, data=str(data), length=1041, n_test=4, horizon=2)
        results = cmd_run(cfg, str(tmp_path / "run"))
        assert sorted(results["per_series"].keys()) == ["s0", "s1"]
        # CSV sources carry no generating process, so there is no miou
        assert results["aggregates"]["miou_star"] is None

    def test_worker_count_does_not_change_results(self, tmp_path, rng):
        data = tmp_path / "series.csv"
        save_wide_csv(
            [TimeSeries(rng.normal(size=60).cumsum(), id=f"s{i}") for i in range(3)], data
        )
        base = dict(synthetic=False, data=str(data), n_test=4, horizon=2)
        seq = cmd_run(fast_config(workers=1, **base), str(tmp_path / "w1"))
        par = cmd_run(fast_config(workers=2, **base), str(tmp_path / "w2"))
        del seq["timestamp"], par["timestamp"]
        seq["config"].pop("workers")
        par["config"].pop("workers")
        assert seq == par
        # the pool sends each series' interval columns back as arrays
        intervals = [(tmp_path / w / "intervals.csv").read_bytes() for w in ("w1", "w2")]
        assert intervals[0] == intervals[1]

    def test_pool_starts_at_most_one_process_per_series(self, tmp_path, rng, monkeypatch):
        # fork starts every worker up front; an inline stand-in starts none
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        data = tmp_path / "series.csv"
        save_wide_csv(
            [TimeSeries(rng.normal(size=60).cumsum(), id=f"s{i}") for i in range(2)], data
        )
        cfg = fast_config(synthetic=False, data=str(data), n_test=4, horizon=2, workers=8)
        cmd_run(cfg, str(tmp_path / "run"))
        assert sizes == [2]

    @pytest.mark.parametrize("method", ["aenbmimocqr", "mimocqr", "enbpi", "enbcqr"])
    def test_runner_is_looked_up_where_a_tracer_patches_it(self, tmp_path, monkeypatch,
                                                            method):
        # a wrapper set on cli.run_<method> after import is the runner a job calls
        original = getattr(cli, f"run_{method}")
        calls = []

        def spy(*args, **kwargs):
            calls.append(method)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, f"run_{method}", spy)
        cmd_run(fast_config(method=method), str(tmp_path / "run"))
        assert calls == [method]


class TestIntervalsCsvAndEval:
    def test_eval_reproduces_run_metrics(self, tmp_path):
        out = str(tmp_path / "run")
        results = cmd_run(fast_config(), out)
        payload = cmd_eval(
            os.path.join(out, "intervals.csv"), out_path=str(tmp_path / "eval.json")
        )
        (sid, series_report), = results["per_series"].items()
        evaluated = payload["per_series"][sid]
        assert evaluated["picp"] == series_report["picp"]
        assert evaluated["pinaw"] == series_report["pinaw"]
        assert evaluated["picp_per_horizon"] == series_report["picp_per_horizon"]
        assert payload["aggregates"]["picp_star"] == results["aggregates"]["picp_star"]

    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_eval_with_oracle_recovers_miou(self, tmp_path, alpha):
        # a synthetic run scores overlap against the oracle at its own alpha
        csv_path = tmp_path / "bench.csv"
        cmd_synth(3, csv_path, length=120, alpha=alpha)
        out = str(tmp_path / "run")
        results = cmd_run(fast_config(alpha=alpha), out)
        payload = cmd_eval(
            os.path.join(out, "intervals.csv"),
            oracle_path=sidecar_path_for(csv_path),
        )
        (sid,) = results["per_series"].keys()
        assert payload["per_series"][sid]["miou"] == results["per_series"][sid]["miou"]

    def test_eval_reads_a_sidecar_that_starts_with_a_byte_order_mark(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        cmd_synth(3, csv_path, length=120)
        out = str(tmp_path / "run")
        cmd_run(fast_config(), out)  # seed 3
        intervals = os.path.join(out, "intervals.csv")
        plain = sidecar_path_for(csv_path)
        marked = tmp_path / "bom.oracle.json"
        with open(plain, encoding="utf-8") as fh:
            marked.write_text("\ufeff" + fh.read(), encoding="utf-8")
        payload = cmd_eval(intervals, oracle_path=str(marked))
        assert payload == cmd_eval(intervals, oracle_path=plain)
        assert payload["per_series"]["synthetic-3"]["miou"] is not None
        capsys.readouterr()
        assert main(["eval", "--intervals", intervals, "--oracle", str(marked)]) == 0

    @pytest.mark.parametrize("sidecar, missing", [
        ({"id": "synthetic-3", "upper": [1.0]}, "'lower'"),
        ({"id": "synthetic-3", "lower": [0.0]}, "'upper'"),
        ({"id": "synthetic-3", "lower": None, "upper": None}, "'lower' or 'upper'"),
        ({"id": "synthetic-3"}, "'lower' or 'upper'"),
        ([0.0, 1.0], "'lower' or 'upper'"),
    ])
    def test_eval_rejects_sidecar_without_bounds(self, tmp_path, capsys, sidecar, missing):
        out = str(tmp_path / "run")
        cmd_run(fast_config(), out)  # seed 3
        intervals = os.path.join(out, "intervals.csv")
        oracle = tmp_path / "bad.oracle.json"
        oracle.write_text(json.dumps(sidecar))
        with pytest.raises(ConfigError, match=f"bad.oracle.json has no {missing} array"):
            cmd_eval(intervals, oracle_path=str(oracle))
        assert main(["eval", "--intervals", intervals, "--oracle", str(oracle)]) == 2
        assert capsys.readouterr().out == ""

    # the JSON text of each array
    @pytest.mark.parametrize("lower, upper", [
        (json.dumps(["a"] + [0.0] * 119), json.dumps([1.0] * 120)),
        # the test segment targets positions 110-119
        (json.dumps([0.0] * 120), json.dumps([1.0] * 115 + [None] + [1.0] * 4)),
        (json.dumps([[0.0]] * 120), json.dumps([[1.0]] * 120)),
        # text that reads as a number is still text, and true is not 1.0
        (json.dumps(["-1e9"] * 120), json.dumps([1.0] * 120)),
        (json.dumps([0.0] * 120), json.dumps([True] * 120)),
        (json.dumps([0.0] * 120), "[" + ", ".join(["1" + "0" * 400] * 120) + "]"),
        # JSON has no NaN or Infinity; a NaN literal is not null
        (json.dumps([float("nan")] * 120), json.dumps([float("nan")] * 120)),
        (json.dumps([0.0] * 120), json.dumps([float("inf")] * 120)),
    ], ids=["string", "one-sided-null", "nested", "numeric-string", "boolean",
            "integer-beyond-float", "nan-literal", "infinity-literal"])
    def test_eval_rejects_sidecar_bounds_that_are_not_numbers(self, tmp_path, capsys,
                                                              lower, upper):
        out = str(tmp_path / "run")
        cmd_run(fast_config(), out)  # seed 3, length 120
        intervals = os.path.join(out, "intervals.csv")
        oracle = tmp_path / "bad.oracle.json"
        oracle.write_text(f'{{"id": "synthetic-3", "lower": {lower}, "upper": {upper}}}')
        with pytest.raises(ConfigError, match="bad.oracle.json needs reference bounds that "
                                              "are numbers, or null on the warmup in both"):
            cmd_eval(intervals, oracle_path=str(oracle))
        assert main(["eval", "--intervals", intervals, "--oracle", str(oracle)]) == 2
        assert "bad.oracle.json" in capsys.readouterr().err

    def test_sidecar_bound_rule(self):
        # an entry passes if it is null or a JSON number with a finite float value
        for entry in (None, 0, -3, 0.5, -1e308, 10 ** 300, 5e-324):
            assert cli._is_bound(entry), entry
        for entry in ("1", True, False, [1.0], {}, float("nan"), float("inf"), 10 ** 400):
            assert not cli._is_bound(entry), entry

    def test_eval_rejects_sidecar_that_is_not_json(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_run(fast_config(), out)  # seed 3
        intervals = os.path.join(out, "intervals.csv")
        oracle = tmp_path / "bad.oracle.json"
        oracle.write_text('{"lower": [1,2],\n')
        with pytest.raises(ConfigError, match="sidecar .*bad.oracle.json is not valid JSON"):
            cmd_eval(intervals, oracle_path=str(oracle))
        assert main(["eval", "--intervals", intervals, "--oracle", str(oracle)]) == 2
        assert "bad.oracle.json" in capsys.readouterr().err
        # a sidecar that cannot be read at all stays a runtime failure
        assert main(["eval", "--intervals", intervals, "--oracle", str(tmp_path / "no.json")]) == 1

    def test_eval_rejects_sidecar_with_unequal_bounds(self, tmp_path, capsys):
        # the test segment targets positions 110-119, past the short upper array
        out = str(tmp_path / "run")
        cmd_run(fast_config(), out)  # seed 3, length 120
        intervals = os.path.join(out, "intervals.csv")
        oracle = tmp_path / "cut.oracle.json"
        oracle.write_text(json.dumps(
            {"id": "synthetic-3", "lower": [0.0] * 120, "upper": [1.0] * 100}))
        with pytest.raises(ConfigError, match="cut.oracle.json has 120 lower but 100 upper"):
            cmd_eval(intervals, oracle_path=str(oracle))
        assert main(["eval", "--intervals", intervals, "--oracle", str(oracle)]) == 2
        assert capsys.readouterr().out == ""

    def test_eval_rejects_sidecar_of_another_series(self, tmp_path, capsys):
        csv_path = tmp_path / "other.csv"
        cmd_synth(4, csv_path, length=120)
        out = str(tmp_path / "run")
        cmd_run(fast_config(), out)  # seed 3
        intervals = os.path.join(out, "intervals.csv")
        oracle = sidecar_path_for(csv_path)
        with pytest.raises(ConfigError, match="'synthetic-4'.*'synthetic-3'"):
            cmd_eval(intervals, oracle_path=oracle)
        assert main(["eval", "--intervals", intervals, "--oracle", oracle]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("sid", [["synthetic-0"], {"a": 1}], ids=["list", "object"])
    def test_eval_rejects_sidecar_id_that_is_not_a_string(self, tmp_path, capsys, sid):
        out = str(tmp_path / "run")
        cmd_run(fast_config(), out)  # seed 3, length 120
        intervals = os.path.join(out, "intervals.csv")
        oracle = tmp_path / "odd.oracle.json"
        oracle.write_text(json.dumps({"id": sid, "lower": [0.0] * 120, "upper": [1.0] * 120}))
        with pytest.raises(ConfigError, match="sidecar .*odd.oracle.json is for series"):
            cmd_eval(intervals, oracle_path=str(oracle))
        assert main(["eval", "--intervals", intervals, "--oracle", str(oracle)]) == 2
        assert capsys.readouterr().out == ""

    def test_eval_file_without_series_column_pairs_with_sidecar(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        cmd_synth(3, csv_path, length=120)
        out = str(tmp_path / "run")
        results = cmd_run(fast_config(), out)
        with open(os.path.join(out, "intervals.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        unnamed = tmp_path / "unnamed.csv"
        unnamed.write_text("\n".join(line.split(",", 1)[1] for line in lines) + "\n")
        payload = cmd_eval(str(unnamed), oracle_path=sidecar_path_for(csv_path))
        capsys.readouterr()
        (sid,) = results["per_series"].keys()
        assert payload["per_series"]["series"]["miou"] == results["per_series"][sid]["miou"]

    def test_eval_three_row_fixture(self, tmp_path, capsys):
        path = tmp_path / "intervals.csv"
        path.write_text(
            "series,origin,h,lower,upper,y,covered\n"
            "s,1,1,0.0,2.0,1.0,1\n"
            "s,1,2,0.0,2.0,3.0,0\n"
            "s,3,1,0.0,2.0,2.0,1\n"
            "s,3,2,0.0,2.0,5.0,0\n"
        )
        payload = cmd_eval(str(path))
        capsys.readouterr()
        assert payload["per_series"]["s"]["picp"] == pytest.approx(0.5)
        assert payload["per_series"]["s"]["picp_per_horizon"] == [1.0, 0.0]

    def test_eval_oracle_positions_checked_at_both_ends(self, tmp_path, capsys):
        # a 200-step sidecar: positions 0..39 are the warmup (null), and the
        # step-h forecast from origin o targets position o + h - 2
        csv_path = tmp_path / "bench.csv"
        cmd_synth(1, csv_path, length=200)
        oracle = sidecar_path_for(csv_path)

        def eval_rows(name, *rows):
            path = tmp_path / name
            path.write_text("series,origin,h,lower,upper,y,covered\n" + "".join(
                f"synthetic-1,{o},{h},0.0,2.0,{y},1\n" for o, h, y in rows))
            return str(path)

        before_start = eval_rows("start.csv", (0, 1, 1.0), (100, 1, 1.5))
        with pytest.raises(ConfigError, match="origin 0, step 1"):
            cmd_eval(before_start, oracle_path=oracle)
        assert main(["eval", "--intervals", before_start, "--oracle", oracle]) == 2

        past_end = eval_rows("end.csv", (100, 1, 1.0), (200, 1, 1.5), (100, 2, 1.0), (200, 2, 1.5))
        with pytest.raises(ConfigError, match="origin 200, step 2"):
            cmd_eval(past_end, oracle_path=oracle)
        assert main(["eval", "--intervals", past_end, "--oracle", oracle]) == 2
        assert capsys.readouterr().out == ""

        on_warmup = eval_rows("warmup.csv", (1, 1, 1.0), (100, 1, 1.5))
        payload = cmd_eval(on_warmup, oracle_path=oracle)
        capsys.readouterr()
        assert payload["per_series"]["synthetic-1"]["miou"] is None
        assert payload["per_series"]["synthetic-1"]["picp"] == 1.0
        assert main(["eval", "--intervals", on_warmup, "--oracle", oracle]) == 0
        assert json.loads(capsys.readouterr().out)["aggregates"]["miou_star"] is None

    @pytest.mark.parametrize("cells, error, message", [
        pytest.param("1,2.0,1.0,1.5", InvalidInterval, "lower 2.0 exceeds upper 1.0",
                     id="2.0,1.0-lower 2.0 exceeds upper 1.0"),
        # a non-finite cell or a bad step fails as a parse error naming the
        # row and column
        pytest.param("1,nan,1.0,1.5", ParseError, "'nan' is not a finite number (row 3, col 4)",
                     id="nan,1.0-finite"),
        pytest.param("1,0.0,2.0,nan", ParseError, "'nan' is not a finite number (row 3, col 6)",
                     id="y-nan"),
        pytest.param("1,0.0,2.0,inf", ParseError, "'inf' is not a finite number (row 3, col 6)",
                     id="y-inf"),
        pytest.param("1,0.0,2.0,-inf", ParseError,
                     "'-inf' is not a finite number (row 3, col 6)", id="y-minus-inf"),
        pytest.param("0,0.0,2.0,1.5", ParseError,
                     "horizon step h must be >= 1, got 0 (row 3, col 3)", id="h-zero"),
        pytest.param("-1,0.0,2.0,1.5", ParseError,
                     "horizon step h must be >= 1, got -1 (row 3, col 3)", id="h-negative"),
        # a good row, a blank line, then the bad row: blank lines count
        pytest.param("1,0.0,2.0,1.5,0\n\ns,3,1,0.0,2.0,nan", ParseError,
                     "'nan' is not a finite number (row 5, col 6)", id="y-nan-after-blank-line"),
    ])
    def test_eval_rejects_a_bad_interval(self, tmp_path, capsys, cells, error, message):
        path = tmp_path / "intervals.csv"
        path.write_text(
            "series,origin,h,lower,upper,y,covered\n"
            "s,1,1,0.0,2.0,1.0,1\n"
            f"s,2,{cells},0\n"
        )
        with pytest.raises(error, match=re.escape(message)):
            cmd_eval(str(path))
        assert main(["eval", "--intervals", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("col, name", enumerate(["origin", "h", "lower", "upper", "y"], 2))
    @pytest.mark.parametrize("cell, error, message", [
        ("", MissingValue, "blank {name} cell"),
        (" x ", ParseError, "cannot parse ' x ' as {expected}"),
    ], ids=["blank", "unparsable"])
    def test_eval_locates_a_bad_cell(self, tmp_path, capsys, col, name, cell, error, message):
        cells = ["s", "2", "1", "0.0", "2.0", "1.5", "1"]
        cells[col - 1] = cell
        path = tmp_path / "intervals.csv"
        path.write_text("series,origin,h,lower,upper,y,covered\n"
                        "s,1,1,0.0,2.0,1.0,1\n" + ",".join(cells) + "\n")
        expected = "an integer" if name in ("origin", "h") else "a number"
        message = message.format(name=name, expected=expected) + f" (row 3, col {col})"
        with pytest.raises(error, match=re.escape(message)) as excinfo:
            cmd_eval(str(path))
        assert (excinfo.value.row, excinfo.value.col) == (3, col)
        assert isinstance(excinfo.value, MissingValue) == (cell == "")
        assert main(["eval", "--intervals", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_eval_rejects_a_repeated_column_name(self, tmp_path, capsys):
        # the first y column used to be scored and the second ignored
        path = tmp_path / "intervals.csv"
        path.write_text("series,origin,h,lower,upper,y,y\n"
                        "s,1,1,0.0,2.0,1.0,1.0\n" "s,1,2,0.0,2.0,3.0,3.0\n")
        message = "repeated name 'y' in header (row 1, col 7)"
        with pytest.raises(ParseError, match=re.escape(message)):
            cmd_eval(str(path))
        assert main(["eval", "--intervals", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_eval_rejects_a_column_name_repeated_in_another_case(self, tmp_path, capsys):
        # names are matched case-blind, so Y and y used to collide unseen
        path = tmp_path / "intervals.csv"
        path.write_text("series,origin,h,lower,upper,y,Y\n"
                        "s,1,1,0.0,2.0,1.0,5.0\n" "s,1,2,0.0,2.0,3.0,1.0\n")
        message = "names 'y' (col 6) and 'Y' differ only in case in header (row 1, col 7)"
        with pytest.raises(ParseError, match=re.escape(message)):
            cmd_eval(str(path))
        assert main(["eval", "--intervals", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_eval_rejects_a_file_without_a_y_column(self, tmp_path, capsys):
        path = tmp_path / "intervals.csv"
        path.write_text("series,origin,h,lower,upper,covered\n"
                        "s,1,1,0.0,2.0,1\n" "s,1,2,0.0,2.0,0\n")
        message = "intervals file lacks columns: y"
        with pytest.raises(ParseError, match=re.escape(message)):
            cmd_eval(str(path))
        assert main(["eval", "--intervals", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_eval_rejects_a_repeated_row(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_run(fast_config(method="enbcqr"), out)
        path = os.path.join(out, "intervals.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(lines[1] + "\n")
        sid, origin, h = lines[1].split(",")[:3]
        message = f"series {sid!r}, origin {origin}, step {h} repeats row 2 (row {len(lines) + 1})"
        with pytest.raises(ParseError, match=re.escape(message)):
            cmd_eval(path)
        assert main(["eval", "--intervals", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("cell", ["", "  "], ids=["empty", "spaces"])
    def test_eval_rejects_a_blank_series_id(self, tmp_path, capsys, cell):
        path = tmp_path / "intervals.csv"
        path.write_text("origin,h,lower,upper,y,covered,series\n"
                        "1,1,0.0,2.0,1.0,1,s\n"
                        f"1,2,0.0,2.0,3.0,0,{cell}\n")
        message = "blank series id (row 3, col 7)"
        with pytest.raises(MissingValue, match=re.escape(message)):
            cmd_eval(str(path))
        assert main(["eval", "--intervals", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_eval_reads_a_file_that_starts_with_a_byte_order_mark(self, tmp_path, capsys):
        # with the mark read as part of its name, the series column went unseen
        text = ("series,origin,h,lower,upper,y,covered\n"
                "a,1,1,0.0,2.0,1.0,1\n" "a,1,2,0.0,2.0,3.0,0\n"
                "b,1,1,0.0,1.0,0.5,1\n" "b,1,2,0.0,1.0,2.0,0\n")
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        payload = cmd_eval(str(marked))
        assert payload == cmd_eval(str(plain))
        assert list(payload["per_series"]) == ["a", "b"]
        capsys.readouterr()

    @pytest.mark.parametrize("method", ["aenbmimocqr", "mimocqr", "enbpi", "enbcqr"])
    def test_intervals_csv_round_trips_floats(self, tmp_path, method):
        cfg = fast_config(method=method)
        out = str(tmp_path / "run")
        cmd_run(cfg, out)
        import csv as csv_mod

        with open(os.path.join(out, "intervals.csv"), newline="") as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == ["series", "origin", "h", "lower", "upper", "y", "covered"]
        body = rows[1:]
        assert len(body) == 10  # n_test intervals
        series, _ = gen_synthetic(SyntheticConfig(seed=cfg.seed, length=cfg.length))
        n_train = cfg.length - cfg.n_test
        for i, row in enumerate(body):
            b, h = divmod(i, cfg.horizon)
            assert (int(row[1]), int(row[2])) == (n_train + 1 + b * cfg.horizon, h + 1)
            lower, upper, y = float(row[3]), float(row[4]), float(row[5])
            assert y == series.values[n_train + i]
            assert lower <= upper
            assert row[6] in ("0", "1")
            assert (int(row[6]) == 1) == (lower <= y <= upper)


class TestCmdSynth:
    def test_round_trip_against_generator(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        sidecar = cmd_synth(9, csv_path, length=90)
        (loaded,) = load_csv(csv_path)
        series, oracle = gen_synthetic(SyntheticConfig(seed=9, length=90))
        np.testing.assert_array_equal(loaded.values, series.values)
        assert loaded.id == "synthetic-9"
        assert sidecar["mu"][:40] == [None] * 40
        assert sidecar["warmup"] == 40 and "noise_scale" not in sidecar
        np.testing.assert_allclose(sidecar["lower"][40:], oracle.lower[40:])
        with open(sidecar_path_for(csv_path), encoding="utf-8") as fh:
            assert json.load(fh) == sidecar

    def test_bad_length_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_synth(1, tmp_path / "x.csv", length=10)

    def test_sidecar_naming(self):
        assert sidecar_path_for("bench.csv") == "bench.oracle.json"
        assert sidecar_path_for("bench.dat") == "bench.dat.oracle.json"


# every run key -> two (text, value) spellings with different values
SPELLINGS = {
    "method": (("mimocqr", "mimocqr"), ("enbpi", "enbpi")),
    "alpha": (("0.2", 0.2), ("0.3", 0.3)),
    "p": (("4", 4), ("6", 6)),
    "H": (("1", 1), ("5", 5)),
    "B": (("3", 3), ("4", 4)),
    "T": (("7", 7), ("9", 9)),
    "n-test": (("4", 4), ("6", 6)),
    "epochs": (("3", 3), ("9", 9)),
    "hidden": (("6,4", (6, 4)), ("8", (8,))),
    "lr": (("0.01", 0.01), ("2e-3", 0.002)),
    "cal-fraction": (("0.3", 0.3), ("0.6", 0.6)),
    "seed": (("5", 5), ("7", 7)),
    "workers": (("2", 2), ("3", 3)),
    "data": (("a.csv", "a.csv"), ("b.csv", "b.csv")),
    "synthetic": (("no", False), ("true", True)),
    "length": (("90", 90), ("200", 200)),
}


class TestConfigFile:
    def test_file_values_then_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# benchmark defaults for smoke runs\n"
            "method = mimocqr\n"
            "synthetic = true\n"
            "length = 120\n"
            "p = 5\n"
            "H = 2\n"
            "n-test = 10\n"
            "epochs = 3\n"
            "hidden = 6\n"
            f"out = {tmp_path / 'from-file'}\n"
        )
        code = main(["run", "--config", str(cfg_file), "--epochs", "4", "--seed", "3"])
        assert code == 0
        results = read_results(str(tmp_path / "from-file"))
        assert results["config"]["method"] == "mimocqr"
        assert results["config"]["epochs"] == 4  # flag beat the file
        assert results["config"]["H"] == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("mthod = mimocqr\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg_file)

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg_file)

    def test_hidden_widths_may_be_spaced(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--synthetic", "--hidden", " 6 , 4 ", "--out", str(tmp_path / "o")])
        assert _resolve_run_config(args)[0].hidden == (6, 4)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        cfg_file = tmp_path / "bom.cfg"
        cfg_file.write_text("\ufeffmethod = enbpi\nseed = 5\n", encoding="utf-8")
        assert parse_config_file(cfg_file) == {"method": "enbpi", "seed": "5"}

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg_file = tmp_path / "ok.cfg"
        cfg_file.write_text("\n# comment\nseed = 5   # trailing\n\n")
        assert parse_config_file(cfg_file) == {"seed": "5"}

    @pytest.mark.parametrize("key", list(_RUN_KEYS))
    def test_file_and_flag_give_one_value_and_the_flag_wins(self, monkeypatch, tmp_path, key):
        # conversion and precedence only; validation has its own tests
        monkeypatch.setattr(ExperimentConfig, "validate", lambda self: None)
        (file_text, file_value), (flag_text, flag_value) = SPELLINGS[key]
        cfg_file = tmp_path / "run.cfg"

        def resolved(file_text=None, flag=()):
            cfg_file.write_text("" if file_text is None else f"{key} = {file_text}\n")
            args = build_parser().parse_args(
                ["run", "--config", str(cfg_file), "--out", "o", *flag])
            value = getattr(_resolve_run_config(args)[0], _RUN_KEYS[key][0])
            return value, type(value)

        def flag(text):
            # --synthetic takes no value; it always means true
            return ["--synthetic"] if key == "synthetic" else [f"--{key}", text]

        assert resolved(file_text) == (file_value, type(file_value))
        assert resolved(flag_text) == (flag_value, type(flag_value))
        assert resolved(flag=flag(flag_text)) == (flag_value, type(flag_value))
        if key != "synthetic":
            assert resolved(flag=flag(file_text)) == (file_value, type(file_value))
        assert resolved(file_text, flag(flag_text)) == (flag_value, type(flag_value))

    def test_repeated_key_rejected(self, tmp_path, capsys, trained):
        # the last value used to win unseen
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("method = enbpi\nsynthetic = true\n\nmethod = mimocqr\n")
        message = "config key 'method' repeats line 1 (line 4)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_file(cfg_file)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert trained == []
        assert not out.exists()

    def test_missing_file_is_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--config", str(tmp_path / "missing.cfg"), "--synthetic",
                     "--out", str(out)]) == 2
        assert "error: cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_type_errors_are_config_errors(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("epochs = soon\n")
        values = parse_config_file(cfg_file)
        assert values == {"epochs": "soon"}
        assert main([
            "run", "--config", str(cfg_file), "--synthetic",
            "--out", str(tmp_path / "o"),
        ]) == 2


# (flag, bad value, message): every int and float key, hidden, and two
# values each converter accepts but validate rejects
BAD_FLAG_VALUES = [
    ("--p", "x", "p expects an integer, got 'x'"),
    ("--lr", "fast", "lr expects a number, got 'fast'"),
    ("--method", "bogus", "method must be one of"),
    *((f"--{key}", "x", f"{key} expects an integer, got 'x'")
      for key in ("H", "B", "T", "n-test", "epochs", "seed", "workers", "length")),
    *((f"--{key}", "fast", f"{key} expects a number, got 'fast'")
      for key in ("alpha", "cal-fraction")),
    ("--hidden", "64;64", "hidden expects comma-separated widths, got '64;64'"),
    # every comma-separated part is a width, so an empty one is an error
    *(("--hidden", text, f"hidden expects comma-separated widths, got {text!r}")
      for text in ("6,,4", "64,", ",64")),
]


class TestMainExitCodes:
    def test_success_is_zero(self, tmp_path):
        code = main([
            "run", "--synthetic", "--length", "120", "--p", "5", "--H", "2",
            "--n-test", "10", "--B", "2", "--T", "20", "--epochs", "3",
            "--hidden", "6", "--seed", "3", "--out", str(tmp_path / "run"),
        ])
        assert code == 0

    def test_validation_problem_is_two(self, tmp_path):
        # --synthetic together with --data is contradictory
        code = main([
            "run", "--synthetic", "--data", "x.csv", "--out", str(tmp_path / "run"),
        ])
        assert code == 2

    def test_negative_synthetic_seed_is_two(self, tmp_path, capsys):
        assert main(["run", "--synthetic", "--seed", "-1", "--out", str(tmp_path / "run")]) == 2
        assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.count("seed must be >= 0") == 2
        assert not os.path.exists(tmp_path / "run")
        assert not os.path.exists(tmp_path / "s.csv")

    @pytest.mark.parametrize("method, length", [("enbpi", "100"), ("mimocqr", "400")])
    def test_too_short_synthetic_run_is_two(self, tmp_path, capsys, method, length):
        out = tmp_path / "run"
        assert main(["run", "--synthetic", "--length", length, "--n-test", "390",
                     "--method", method, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"length {length} minus n-test 390" in err
        assert "(p=40, H=30)" in err
        assert not out.exists()
        # two frame rows' worth of training values pass: p + H + 1 = 8 for
        # the MIMO methods, p + 2 = 7 for the recursive ones
        fast_config(length=122, n_test=114).validate()
        fast_config(method="mimocqr", length=122, n_test=114).validate()
        fast_config(method="enbpi", length=121, n_test=114).validate()
        with pytest.raises(ConfigError, match=r"length 122 minus n-test 114 .*: calibration "
                                              r"split, 0.3 of 2 frame rows, is empty"):
            fast_config(method="mimocqr", length=122, n_test=114, cal_fraction=0.3).validate()

    # (key, a value its rule rejects, that value as the rule's text writes it):
    # every run key that has a rule, at a method that ignores B and T, so a
    # setting's rule holds whatever the method
    RULED = [("p", "0", "0"), ("H", "0", "0"), ("B", "1", "1"), ("T", "0", "0"),
             ("n-test", "7", "7"), ("epochs", "0", "0"), ("hidden", "0", "(0,)"),
             ("lr", "nan", "nan"), ("alpha", "1.0", "1.0"), ("cal-fraction", "1.0", "1.0"),
             ("seed", "-1", "-1"), ("length", "40", "40"), ("workers", "0", "0")]

    @pytest.mark.parametrize("key, value, shown", RULED, ids=[key for key, *_ in RULED])
    def test_each_rule_names_its_key(self, tmp_path, capsys, trained, key, value, shown):
        out = tmp_path / "run"
        assert main(["run", "--synthetic", "--method", "mimocqr", f"--{key}={value}",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {key} " in err
        # and the value it rejects
        assert err.rstrip().endswith(f", got {shown}"), err
        assert trained == []
        assert not out.exists()

    def test_cal_fraction_one_is_two_on_csv_and_synthetic_data(self, tmp_path, capsys, trained,
                                                                rng):
        data = tmp_path / "series.csv"
        save_wide_csv([TimeSeries(rng.normal(size=60).cumsum(), id="s")], data)
        out = tmp_path / "run"
        for source in (["--data", str(data), "--p", "5", "--H", "2", "--n-test", "10"],
                       ["--synthetic"]):
            assert main(["run", *source, "--method", "mimocqr", "--cal-fraction", "1.0",
                         "--out", str(out)]) == 2
        rule = "error: cal-fraction must be in (0, 1), or 1 with injected nets, got 1.0"
        assert capsys.readouterr().err.count(rule) == 2
        assert trained == []
        assert not out.exists()

    def test_missing_out_is_two(self):
        assert main(["run", "--synthetic"]) == 2

    def test_runtime_problem_is_one(self, tmp_path):
        code = main([
            "run", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "run"),
        ])
        assert code == 1

    def test_eval_missing_file_is_one(self, tmp_path):
        assert main(["eval", "--intervals", str(tmp_path / "nope.csv")]) == 1

    def test_unknown_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--frobnicate"])

    def test_layout_is_no_setting(self, tmp_path, capsys, rng):
        # a CSV's header says its layout, so neither a flag nor a key sets it
        data = tmp_path / "series.csv"
        save_wide_csv([TimeSeries(rng.normal(size=60).cumsum(), id="s")], data)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--data", str(data), "--layout", "wide", "--out", str(out)])
        assert excinfo.value.code == 2
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"data = {data}\nlayout = wide\n")
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "unknown config key 'layout' (line 2)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", BAD_FLAG_VALUES,
                             ids=[flag[2:] + (f"={value}" if "," in value else "")
                                  for flag, value, _ in BAD_FLAG_VALUES])
    def test_bad_flag_value_is_two_and_names_the_key(self, tmp_path, capsys, flag, value,
                                                     message):
        out = tmp_path / "run"
        assert main(["run", "--synthetic", flag, value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_file_value_is_two_and_names_the_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("synthetic = maybe\n")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "synthetic expects true/false, got 'maybe'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--seed", "seed expects an integer, got 'x'"),
        ("--length", "length expects an integer, got 'x'"),
        ("--alpha", "alpha expects a number, got 'x'"),
    ], ids=["seed", "length", "alpha"])
    def test_bad_synth_value_is_two_and_names_the_key(self, tmp_path, capsys, flag, message):
        out = tmp_path / "s.csv"
        argv = ["synth", "--seed", "1", "--out", str(out), flag, "x"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, span", [("aenbmimocqr", 7), ("enbpi", 6), ("enbcqr", 6)])
    def test_one_row_frame_is_one_before_any_training(self, tmp_path, capsys, trained,
                                                      method, span):
        # at p 5 and H 2 a MIMO frame row spans p + H = 7 values and a
        # recursive one p + 1 = 6, so n-test 4 leaves exactly one row
        data = tmp_path / "series.csv"
        save_wide_csv([TimeSeries(np.arange(1.0, span + 5.0), id="s")], data)
        assert main([
            "run", "--data", str(data), "--method", method, "--p", "5", "--H", "2",
            "--n-test", "4", "--B", "3", "--out", str(tmp_path / "run"),
        ]) == 1
        assert ("bagging needs at least 2 frame rows, the training frame has 1"
                in capsys.readouterr().err)
        assert trained == []

    # (--out under tmp_path, where taken is a file); taken/../run climbs out of
    # the file, which the OS refuses (ENOTDIR) though a lexical .. would not
    @pytest.mark.parametrize("out_name", ["taken", "taken/run", "taken/../run"],
                             ids=["file", "under-file", "dotdot-out-of-file"])
    def test_out_that_cannot_be_a_directory_is_one_before_any_training(
            self, tmp_path, capsys, trained, out_name):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = os.path.join(tmp_path, out_name)
        assert main(["run", "--synthetic", "--length", "60", "--p", "5", "--H", "2",
                     "--n-test", "4", "--B", "2", "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert trained == []
        assert taken.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    # at alpha 1e-17 the upper band level 1 - alpha / 2 rounds to 1.0
    @pytest.mark.parametrize("method", list(cli.METHODS))
    def test_alpha_whose_level_rounds_to_one_is_two_before_any_training(
            self, tmp_path, capsys, trained, rng, method):
        data = tmp_path / "series.csv"
        save_wide_csv([TimeSeries(rng.normal(size=60).cumsum(), id="s")], data)
        out = tmp_path / "run"
        assert main(["run", "--data", str(data), "--method", method, "--alpha", "1e-17",
                     "--p", "5", "--H", "2", "--n-test", "10", "--B", "2",
                     "--out", str(out)]) == 2
        assert "alpha must leave both band levels" in capsys.readouterr().err
        assert trained == []
        assert not out.exists()

    def test_synthetic_alpha_whose_level_rounds_to_one_is_two(self, tmp_path, capsys, trained):
        out, series_csv = tmp_path / "run", tmp_path / "s.csv"
        assert main(["run", "--synthetic", "--alpha", "1e-17", "--method", "mimocqr",
                     "--epochs", "2", "--out", str(out)]) == 2
        assert main(["synth", "--seed", "1", "--alpha", "1e-17", "--out", str(series_csv)]) == 2
        assert capsys.readouterr().err.count("alpha must leave both band levels") == 2
        assert trained == []
        assert list(tmp_path.iterdir()) == []

    # (--out under tmp_path, the directory made before the run or None)
    @pytest.mark.parametrize("out_name, premade", [
        ("run", None), ("run", "run"), ("deep/a/run", None), ("deep/a/run", "deep"),
        ("x/../run", None),
    ], ids=["new", "premade", "nested", "premade-ancestor", "dotdot"])
    def test_failed_run_removes_only_the_out_it_made(
            self, tmp_path, capsys, rng, out_name, premade):
        data = tmp_path / "flat.csv"
        save_wide_csv([TimeSeries(rng.normal(size=60), id="noise"),
                       TimeSeries(np.full(60, 5.0), id="flat")], data)
        if premade:
            (tmp_path / premade).mkdir()
        assert main(["run", "--data", str(data), "--method", "enbpi", "--epochs", "2",
                     "--p", "5", "--H", "2", "--n-test", "10", "--B", "2",
                     "--hidden", "4", "--out", str(tmp_path / out_name)]) == 1
        assert "realized values have zero range" in capsys.readouterr().err
        # every directory the run made is gone; one made before the run stays, empty
        kept = {"flat.csv"} | ({premade} if premade else set())
        assert {p.name for p in tmp_path.iterdir()} == kept
        assert not premade or list((tmp_path / premade).iterdir()) == []

    def test_out_is_made_only_after_every_series_job(self, tmp_path, monkeypatch):
        out = tmp_path / "deep" / "run"
        jobs = []

        def spy(job):
            assert not (tmp_path / "deep").exists()
            jobs.append(job)
            return series_job(job)

        series_job = cli._series_job
        monkeypatch.setattr(cli, "_series_job", spy)
        assert main(["run", "--synthetic", "--length", "120", "--p", "5", "--H", "2",
                     "--n-test", "10", "--B", "2", "--epochs", "2", "--hidden", "4",
                     "--out", str(out)]) == 0
        assert len(jobs) == 1
        assert sorted(p.name for p in out.iterdir()) == ["intervals.csv", "results.json"]

    def test_run_flags_are_the_config_keys(self):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        flags = {opt for action in sub.choices["run"]._actions for opt in action.option_strings}
        expected = {f"--{key}" for key in _RUN_KEYS} | {"--config", "--out"}
        assert flags - {"-h", "--help"} == expected

    def test_synth_writes_files(self, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["synth", "--seed", "4", "--out", str(out), "--length", "90"]) == 0
        assert out.exists()
        assert os.path.exists(sidecar_path_for(out))
