import math
from statistics import NormalDist

import numpy as np
import pytest

import oracles
from conformalts import data
from conformalts.data import (
    OracleIntervalSet,
    SyntheticConfig,
    gen_synthetic,
    load_csv,
    save_wide_csv,
    split_train_test,
)
from conformalts.errors import (
    ConfigError,
    EmptyFile,
    MissingValue,
    NonPositiveMean,
    ParseError,
    SeriesTooShort,
)
from conformalts.framing import TimeSeries

try:
    from scipy.stats import norm as _scipy_norm
except ImportError:
    _scipy_norm = None


class TestSyntheticConfig:
    def test_validation(self):
        # the length must exceed the 40-value warmup
        with pytest.raises(ConfigError):
            SyntheticConfig(seed=0, length=40)
        with pytest.raises(ConfigError):
            SyntheticConfig(seed=0, oracle_alpha=0.0)
        with pytest.raises(ConfigError):
            SyntheticConfig(seed=-1)
        # 1 - 1e-17 / 2 is 1.0 as a float, an upper level band_levels rejects
        with pytest.raises(ConfigError, match="alpha"):
            SyntheticConfig(seed=0, oracle_alpha=1e-17)


class TestGenSynthetic:
    def test_bitwise_deterministic(self):
        cfg = SyntheticConfig(seed=7, length=140)
        a, oa = gen_synthetic(cfg)
        b, ob = gen_synthetic(cfg)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(oa.lower, ob.lower)
        np.testing.assert_array_equal(oa.upper, ob.upper)

    def test_seed_changes_trace(self):
        a, _ = gen_synthetic(SyntheticConfig(seed=1, length=120))
        b, _ = gen_synthetic(SyntheticConfig(seed=2, length=120))
        assert not np.array_equal(a.values, b.values)

    def test_default_shape_and_id(self):
        series, oracle = gen_synthetic(SyntheticConfig(seed=3, length=120))
        assert len(series) == 120
        assert series.id == "synthetic-3"

    def test_warmup_values_in_unit_interval(self):
        series, _ = gen_synthetic(SyntheticConfig(seed=5, length=100))
        head = series.values[:40]
        assert np.all((head >= 0.0) & (head < 1.0))

    def test_oracle_nan_exactly_on_warmup(self):
        _, oracle = gen_synthetic(SyntheticConfig(seed=5, length=100))
        assert np.all(np.isnan(oracle.mu[:40]))
        assert np.all(np.isfinite(oracle.mu[40:]))
        assert np.all(np.isfinite(oracle.lower[40:]))

    def test_mu_and_sigma_recompute_exactly(self):
        # mu_t and sigma_t of the drawn series follow from its own values
        cfg = SyntheticConfig(seed=11, length=130)
        series, oracle = gen_synthetic(cfg)
        y = series.values
        for t in range(40, 130):
            mu = math.log(math.fsum(v * v for v in y[t - 40:t]))
            assert oracle.mu[t] == mu
            c = 0.1 + 0.001 * (t + 1)
            assert oracle.sigma[t] == c * mu

    def test_oracle_interval_is_symmetric_normal_band(self):
        _, oracle = gen_synthetic(SyntheticConfig(seed=2, length=120))
        z = NormalDist().inv_cdf(0.95)
        t = 80
        assert oracle.lower[t] == pytest.approx(oracle.mu[t] - z * oracle.sigma[t], rel=1e-14)
        assert oracle.upper[t] == pytest.approx(oracle.mu[t] + z * oracle.sigma[t], rel=1e-14)

    @pytest.mark.skipif(_scipy_norm is None, reason="scipy not installed")
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2, 0.5, 0.9])
    def test_oracle_z_is_the_normal_quantile(self, alpha):
        # the band is exact up to rounding: (upper - mu) / sigma is z at 1 - alpha/2
        _, oracle = gen_synthetic(SyntheticConfig(seed=4, length=200, oracle_alpha=alpha))
        z = (oracle.upper[40:] - oracle.mu[40:]) / oracle.sigma[40:]
        np.testing.assert_allclose(z, _scipy_norm.ppf(1.0 - alpha / 2.0), rtol=1e-14, atol=0)

    def test_mean_level_matches_warmup_moments(self):
        # sum of 40 squared uniforms concentrates near 40/3, so mu_41 should
        # average close to log(40/3) across seeds
        vals = []
        for seed in range(1500):
            _, oracle = gen_synthetic(SyntheticConfig(seed=seed, length=42))
            vals.append(oracle.mu[40])
        assert abs(float(np.mean(vals)) - math.log(40.0 / 3.0)) < 0.05

    def test_oracle_coverage_near_nominal(self):
        # pooled over > 50k generated steps the exact 90% band should cover
        # close to 90% of the draws
        inside = total = 0
        for seed in range(55):
            series, oracle = gen_synthetic(SyntheticConfig(seed=seed))
            y = series.values[40:]
            lo = oracle.lower[40:]
            hi = oracle.upper[40:]
            inside += int(np.sum((lo <= y) & (y <= hi)))
            total += y.size
        assert total > 50_000
        assert abs(inside / total - 0.9) < 0.01

    @pytest.mark.parametrize("seed", [1, 2, 12345, 1331523251])
    def test_bitwise_equal_to_scalar_draw_reference(self, seed):
        for length in (41, 300, 1041):
            cfg = SyntheticConfig(seed=seed, length=length)
            series, oracle = gen_synthetic(cfg)
            expected = oracles.ref_gen_synthetic(
                seed, length, 40, cfg.oracle_alpha, NormalDist().inv_cdf)
            got = (series.values, oracle.mu, oracle.sigma, oracle.lower, oracle.upper)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b, equal_nan=True), length

    def test_nonpositive_mean_raises(self, monkeypatch):
        # a single warmup draw in (0, 1) has log(y^2) < 0
        monkeypatch.setattr(data, "WARMUP", 1)
        with pytest.raises(NonPositiveMean):
            gen_synthetic(SyntheticConfig(seed=0, length=3))


class TestSplitTrainTest:
    def test_benchmark_split(self):
        series = TimeSeries(np.arange(791.0), id="s")
        train, test = split_train_test(series, 390)
        assert len(train) == 401
        assert len(test) == 390
        np.testing.assert_array_equal(
            np.concatenate([train.values, test.values]), series.values
        )
        assert train.id == test.id == "s"

    def test_whole_series_as_test_rejected(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(SeriesTooShort):
            split_train_test(series, 10)

    def test_bad_n_test(self):
        with pytest.raises(ValueError):
            split_train_test(TimeSeries(np.arange(10.0)), 0)


class TestCsv:
    def test_wide_round_trip(self, tmp_path, rng):
        series = [
            TimeSeries(rng.normal(size=25), id="a"),
            TimeSeries(rng.normal(size=25), id="b"),
        ]
        path = tmp_path / "wide.csv"
        save_wide_csv(series, path)
        loaded = load_csv(path)
        assert [s.id for s in loaded] == ["a", "b"]
        for orig, back in zip(series, loaded):
            np.testing.assert_array_equal(orig.values, back.values)

    def test_wide_files_join_line_by_line(self, tmp_path, rng):
        # what `paste -d, a.csv b.csv` does: a row ending in CR would leave
        # the CR inside the joined line
        series = [TimeSeries(rng.normal(size=25), id=name) for name in ("a", "b")]
        lines = []
        for s in series:
            save_wide_csv([s], tmp_path / f"{s.id}.csv")
            lines.append((tmp_path / f"{s.id}.csv").read_bytes().rstrip(b"\n").split(b"\n"))
        joined = tmp_path / "joined.csv"
        joined.write_bytes(b"".join(a + b"," + b + b"\n" for a, b in zip(*lines)))
        loaded = load_csv(joined)
        assert [s.id for s in loaded] == ["a", "b"]
        for orig, back in zip(series, loaded):
            np.testing.assert_array_equal(orig.values, back.values)

    def test_wide_fixture_shape(self, tmp_path, rng):
        # many short daily series in one file, one column each
        series = [TimeSeries(rng.normal(size=791), id=f"T{i + 1}") for i in range(111)]
        path = tmp_path / "bank.csv"
        save_wide_csv(series, path)
        loaded = load_csv(path)
        assert len(loaded) == 111
        assert all(len(s) == 791 for s in loaded)
        assert loaded[0].id == "T1"
        assert loaded[110].id == "T111"

    def test_long_layout_sorts_by_time(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            "id,t,value\n"
            "a,3,30.0\n"
            "b,1,100.0\n"
            "a,1,10.0\n"
            "a,2,20.0\n"
            "b,2,200.0\n"
        )
        loaded = load_csv(path)
        by_id = {s.id: s for s in loaded}
        np.testing.assert_array_equal(by_id["a"].values, [10.0, 20.0, 30.0])
        np.testing.assert_array_equal(by_id["b"].values, [100.0, 200.0])

    def test_long_duplicate_time_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,t,value\na,1,10.0\na,1,11.0\n")
        with pytest.raises(ParseError, match="repeats row 2") as excinfo:
            load_csv(path)
        assert excinfo.value.row == 3

    def test_long_time_gap_rejected(self, tmp_path):
        # the wide layout cannot skip a value silently, and neither can this
        path = tmp_path / "gap.csv"
        path.write_text("id,t,value\na,1,10.0\nb,1,1.0\na,2,20.0\na,5,50.0\n")
        with pytest.raises(MissingValue, match="series 'a' has no value at t 3") as excinfo:
            load_csv(path)
        assert excinfo.value.row == 5

    def test_long_bad_header(self, tmp_path):
        # any header but id,t,value is the wide layout, where every cell is a number
        path = tmp_path / "hdr.csv"
        path.write_text("series,time,y\na,1,10.0\n")
        with pytest.raises(ParseError, match="cannot parse 'a' as a number") as excinfo:
            load_csv(path)
        assert (excinfo.value.row, excinfo.value.col) == (2, 1)

    def test_header_says_the_layout(self, tmp_path):
        path = tmp_path / "hdr.csv"
        # id,t,value in any case is the long layout
        path.write_text("ID,T,Value\na,2,20.0\na,1,10.0\n")
        (loaded,) = load_csv(path)
        assert loaded.id == "a"
        np.testing.assert_array_equal(loaded.values, [10.0, 20.0])
        # so three wide series named id, t and value read as one long series
        path.write_text("id,t,value\n1,1,5.0\n1,2,6.0\n")
        (loaded,) = load_csv(path)
        assert loaded.id == "1"
        np.testing.assert_array_equal(loaded.values, [5.0, 6.0])
        # a header with one more or one fewer name is wide
        for text, ids in (("id,t\n1,2\n", ["id", "t"]),
                          ("id,t,value,w\n1,2,3,4\n", ["id", "t", "value", "w"])):
            path.write_text(text)
            assert [s.id for s in load_csv(path)] == ids, text

    def test_missing_value_location(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,\n")
        with pytest.raises(MissingValue) as excinfo:
            load_csv(path)
        assert excinfo.value.row == 3
        assert excinfo.value.col == 2

    def test_parse_error_location(self, tmp_path):
        # (text, row, col), wide then long; a non-finite number is no value either
        cases = [("a,b\n1.0,2.0\noops,4.0\n", 3, 1)]
        for cell in ("nan", "inf", "-inf"):
            cases.append((f"a,b\n1.0,2.0\n3.0,{cell}\n", 3, 2))
            cases.append((f"id,t,value\na,1,1.0\na,2,{cell}\n", 3, 3))
        # blank lines are skipped but still count as file lines
        cases.append(("a,b\n\n1.0,2.0\n\noops,4.0\n", 5, 1))
        cases.append(("id,t,value\n\na,1,1.0\n\na,2,nan\n", 5, 3))
        # a line of delimiters is a row of blank cells, not a blank line
        cases.append(("a,b\n1.0,2.0\n,\n3.0,4.0\n", 3, 1))
        cases.append(("id,t,value\na,1,1.0\n,,\na,2,2.0\n", 3, 1))
        # a blank line inside a one-column body is that row's blank cell
        cases.append(("a\n1.0\n\n3.0\n4.0\n", 3, 1))
        # a blank name is at its column of the header line
        cases.append(("a,,b\n1.0,2.0,3.0\n", 1, 2))
        path = tmp_path / "bad.csv"
        for text, row, col in cases:
            path.write_text(text)
            with pytest.raises(ParseError) as excinfo:
                load_csv(path)
            assert (excinfo.value.row, excinfo.value.col) == (row, col), text

    @pytest.mark.parametrize("text", [
        "a,b\n1.0,2.0\n3.0,4.0\n",
        "id,t,value\na,1,1.0\nb,1,2.0\na,2,3.0\nb,2,4.0\n",
    ], ids=["wide", "long"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        loaded = load_csv(marked)
        assert [s.id for s in loaded] == ["a", "b"]
        for got, want in zip(loaded, load_csv(plain)):
            np.testing.assert_array_equal(got.values, want.values)

    def test_ragged_wide_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_duplicate_wide_ids_rejected(self, tmp_path):
        path = tmp_path / "dupid.csv"
        path.write_text("a,a\n1.0,2.0\n")
        with pytest.raises(ParseError, match="repeated name 'a' in header") as excinfo:
            load_csv(path)
        assert (excinfo.value.row, excinfo.value.col) == (1, 2)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        cases = [
            # a blank row of a wider table is written as delimiters, so a
            # blank line inside its body is no row
            ("a,b\n\n1.0,2.0\n\n3.0,4.0\n\n", [[1.0, 3.0], [2.0, 4.0]]),
            # a one-column table writes a blank value as a blank line, so
            # only blank lines after its last row are skipped
            ("a\n1.0\n2.0\n\n\n", [[1.0, 2.0]]),
        ]
        for text, values in cases:
            path.write_text(text)
            assert [s.values.tolist() for s in load_csv(path)] == values, text

    def test_save_rejects_unequal_lengths(self, tmp_path):
        series = [TimeSeries(np.arange(3.0)), TimeSeries(np.arange(4.0), id="b")]
        with pytest.raises(ValueError):
            save_wide_csv(series, tmp_path / "bad.csv")

    def test_save_rejects_empty(self, tmp_path):
        with pytest.raises(EmptyFile):
            save_wide_csv([], tmp_path / "none.csv")
