import json
import os
import re

import numpy as np
import pytest

from conformalts.cli import (
    _RUN_KEYS,
    ExperimentConfig,
    build_parser,
    cmd_eval,
    cmd_run,
    cmd_synth,
    main,
    parse_config_file,
    sidecar_path_for,
)
from conformalts.data import SyntheticConfig, gen_synthetic, load_csv, save_wide_csv
from conformalts.errors import ConfigError, InvalidInterval, ParseError
from conformalts.framing import TimeSeries

FAST = dict(
    alpha=0.1, n_lags=5, horizon=2, n_models=2, window_size=20, n_test=10,
    epochs=4, hidden=(6,), synthetic=True, length=120, seed=3,
)


def fast_config(**overrides):
    kw = dict(FAST)
    kw.update(overrides)
    return ExperimentConfig(**kw)


def read_results(out_dir):
    with open(os.path.join(out_dir, "results.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestExperimentConfig:
    def test_defaults_mirror_benchmark_settings(self):
        cfg = ExperimentConfig()
        assert cfg.method == "aenbmimocqr"
        assert (cfg.alpha, cfg.n_lags, cfg.horizon) == (0.1, 40, 30)
        assert (cfg.n_models, cfg.window_size, cfg.n_test) == (10, 100, 390)

    def test_validate_catches_bad_values(self):
        for overrides in (
            dict(method="magic"),
            dict(alpha=1.0),
            dict(n_models=1),
            dict(n_test=7),          # not a multiple of horizon=2
            dict(cal_fraction=0.0),
            dict(cal_fraction=1.0),  # mimocqr would have no training rows
            dict(workers=0),
            dict(synthetic=False),   # no data source at all
            dict(data="x.csv"),      # two data sources
            dict(length=40),
            dict(layout="tall"),
            dict(seed=-1),           # numpy cannot seed a synthetic series with it
        ):
            with pytest.raises(ConfigError):
                fast_config(**overrides).validate()

    def test_fast_config_is_valid(self):
        fast_config().validate()

    def test_negative_seed_allowed_for_csv_data(self):
        # a CSV run only hashes the seed into derived seeds
        fast_config(seed=-1, synthetic=False, data="x.csv").validate()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_lr_rejected_before_training(self, tmp_path, capsys, lr):
        with pytest.raises(ConfigError, match=f"lr .*got {lr}"):
            fast_config(learning_rate=float(lr)).validate()
        out = tmp_path / "run"
        assert main(["run", "--synthetic", "--method", "mimocqr", "--epochs", "3",
                     f"--lr={lr}", "--out", str(out)]) == 2
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"lr = {lr}\n")
        assert main(["run", "--config", str(cfg_file), "--synthetic", "--method", "mimocqr",
                     "--epochs", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"lr must be a positive finite number, got {lr}") == 2
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
        pytest.param("1,nan,1.0,1.5", InvalidInterval, "finite", id="nan,1.0-finite"),
        # a bad realized value or step fails as a parse error naming the row
        pytest.param("1,0.0,2.0,nan", ParseError, "realized y must be finite, got nan (row 3)",
                     id="y-nan"),
        pytest.param("1,0.0,2.0,inf", ParseError, "realized y must be finite, got inf (row 3)",
                     id="y-inf"),
        pytest.param("1,0.0,2.0,-inf", ParseError, "realized y must be finite, got -inf (row 3)",
                     id="y-minus-inf"),
        pytest.param("0,0.0,2.0,1.5", ParseError, "horizon step h must be >= 1, got 0 (row 3)",
                     id="h-zero"),
        pytest.param("-1,0.0,2.0,1.5", ParseError, "horizon step h must be >= 1, got -1 (row 3)",
                     id="h-negative"),
        # a good row, a blank line, then the bad row: blank lines count
        pytest.param("1,0.0,2.0,1.5,0\n\ns,3,1,0.0,2.0,nan", ParseError,
                     "realized y must be finite, got nan (row 5)", id="y-nan-after-blank-line"),
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
        (loaded,) = load_csv(csv_path, "wide")
        series, oracle = gen_synthetic(SyntheticConfig(seed=9, length=90))
        np.testing.assert_array_equal(loaded.values, series.values)
        assert loaded.id == "synthetic-9"
        assert sidecar["mu"][:40] == [None] * 40
        np.testing.assert_allclose(sidecar["lower"][40:], oracle.lower[40:])
        with open(sidecar_path_for(csv_path), encoding="utf-8") as fh:
            assert json.load(fh) == sidecar

    def test_bad_length_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_synth(1, tmp_path / "x.csv", length=10)

    def test_sidecar_naming(self):
        assert sidecar_path_for("bench.csv") == "bench.oracle.json"
        assert sidecar_path_for("bench.dat") == "bench.dat.oracle.json"


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

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg_file = tmp_path / "ok.cfg"
        cfg_file.write_text("\n# comment\nseed = 5   # trailing\n\n")
        assert parse_config_file(cfg_file) == {"seed": "5"}

    def test_type_errors_are_config_errors(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("epochs = soon\n")
        values = parse_config_file(cfg_file)
        assert values == {"epochs": "soon"}
        assert main([
            "run", "--config", str(cfg_file), "--synthetic",
            "--out", str(tmp_path / "o"),
        ]) == 2


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--p", "x", "p expects an integer, got 'x'"),
        ("--lr", "fast", "lr expects a number, got 'fast'"),
        ("--method", "bogus", "method must be one of"),
        ("--layout", "tall", "layout must be one of"),
    ], ids=["p", "lr", "method", "layout"])
    def test_bad_flag_value_is_two_and_names_the_key(self, tmp_path, capsys, flag, value,
                                                     message):
        out = tmp_path / "run"
        assert main(["run", "--synthetic", flag, value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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
