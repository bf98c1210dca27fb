import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conformalts.errors import ConfigError, InvalidInterval, SeriesTooShort
from conformalts.framing import (
    PredictionInterval,
    TimeSeries,
    band_levels,
    check_bounds,
    covered,
    frame_mimo,
    frame_recursive,
    recursive_forecast,
)


def series_of(*values):
    return TimeSeries(np.asarray(values, dtype=float))


class TestTimeSeries:
    def test_length_and_values(self):
        ts = series_of(1, 2, 3)
        assert len(ts) == 3
        np.testing.assert_array_equal(ts.values, [1.0, 2.0, 3.0])

    def test_default_id(self):
        assert series_of(1).id == "series"

    def test_rejects_empty(self):
        with pytest.raises(SeriesTooShort):
            TimeSeries(np.empty(0))

    def test_rejects_2d(self):
        with pytest.raises(SeriesTooShort):
            TimeSeries(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.inf]))


class TestPredictionInterval:
    def test_orders_bounds(self):
        with pytest.raises(InvalidInterval):
            PredictionInterval(2.0, 1.0)

    def test_rejects_nan_bound(self):
        with pytest.raises(InvalidInterval):
            PredictionInterval(np.nan, 1.0)


class TestCheckBounds:
    # the last pair is finite and ordered, but its width overflows
    @pytest.mark.parametrize("pair", [(2.0, 1.0), (np.nan, 1.0), (0.0, -np.inf), (-1e308, 1e308)])
    def test_rejects_a_bad_pair(self, pair):
        with pytest.raises(InvalidInterval):
            check_bounds([0.0, pair[0]], [1.0, pair[1]])


class TestBandLevels:
    # from 2.3e-16 up, 1 - alpha / 2 rounds below 1.0
    @given(st.floats(min_value=2.3e-16, max_value=1.0, exclude_max=True))
    @example(2.3e-16)
    @example(math.nextafter(1.0, 0.0))
    def test_levels_are_the_halves_bit_for_bit(self, alpha):
        lo, hi = band_levels(alpha)
        assert (lo.hex(), hi.hex()) == ((alpha / 2.0).hex(), (1.0 - alpha / 2.0).hex())
        assert 0.0 < lo < hi < 1.0

    # 5e-324 halves to 0.0; below about 1.1e-16, 1 - alpha / 2 rounds to 1.0
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan, 5e-324, 1e-17, 1.1e-16])
    def test_a_level_outside_the_open_unit_interval_is_a_config_error(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            band_levels(alpha)


class TestCovered:
    def test_covers_is_closed_elementwise(self):
        np.testing.assert_array_equal(
            covered(np.ones(4), np.full(4, 2.0), np.array([1.0, 2.0, 0.999, 2.001])),
            [True, True, False, False],
        )


class TestFrameRecursive:
    def test_small_enumeration(self):
        frame = frame_recursive(series_of(1, 2, 3, 4, 5), 2)
        assert frame.n_rows == 3
        np.testing.assert_array_equal(frame.covariates, [[1, 2], [2, 3], [3, 4]])
        np.testing.assert_array_equal(frame.targets, [[3], [4], [5]])
        assert frame.horizon == 1

    def test_row_count_long_series(self):
        ts = TimeSeries(np.arange(791, dtype=float))
        assert frame_recursive(ts, 40).n_rows == 751

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            frame_recursive(series_of(1, 2), 2)

    def test_bad_lags(self):
        with pytest.raises(ValueError):
            frame_recursive(series_of(1, 2, 3), 0)


class TestFrameMimo:
    def test_small_enumeration(self):
        frame = frame_mimo(TimeSeries(np.arange(1, 11, dtype=float)), 2, 2)
        assert frame.n_rows == 7
        np.testing.assert_array_equal(frame.covariates[0], [1, 2])
        np.testing.assert_array_equal(frame.targets[0], [3, 4])
        np.testing.assert_array_equal(frame.covariates[-1], [7, 8])
        np.testing.assert_array_equal(frame.targets[-1], [9, 10])

    def test_row_count_benchmark_shape(self):
        ts = TimeSeries(np.arange(1041, dtype=float))
        frame = frame_mimo(ts, 40, 30)
        assert frame.n_rows == 972
        assert frame.covariates.shape == (972, 40)
        assert frame.targets.shape == (972, 30)

    def test_last_target_reaches_series_end(self):
        ts = TimeSeries(np.arange(20, dtype=float))
        frame = frame_mimo(ts, 4, 3)
        np.testing.assert_array_equal(frame.targets[-1], ts.values[-3:])

    def test_horizon_one_matches_recursive(self):
        ts = TimeSeries(np.random.default_rng(0).normal(size=37))
        a = frame_mimo(ts, 5, 1)
        b = frame_recursive(ts, 5)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            frame_mimo(series_of(*range(6)), 4, 3)

    @given(
        n=st.integers(8, 60),
        n_lags=st.integers(1, 5),
        horizon=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_rows_are_contiguous_slices(self, n, n_lags, horizon, seed):
        if n < n_lags + horizon:
            return
        values = np.random.default_rng(seed).normal(size=n)
        frame = frame_mimo(TimeSeries(values), n_lags, horizon)
        assert frame.n_rows == n - n_lags - horizon + 1
        for i in range(frame.n_rows):
            row = np.concatenate([frame.covariates[i], frame.targets[i]])
            np.testing.assert_array_equal(row, values[i:i + n_lags + horizon])


class TestRecursiveForecast:
    def test_echo_model_repeats_last_value(self):
        out = recursive_forecast(lambda x: x[-1], np.array([4.0, 5.0]), 3)
        np.testing.assert_array_equal(out, [5.0, 5.0, 5.0])

    def test_sum_model_walks_fibonacci(self):
        out = recursive_forecast(lambda x: x[0] + x[1], np.array([1.0, 1.0]), 3)
        np.testing.assert_array_equal(out, [2.0, 3.0, 5.0])

    def test_inputs_chain_through_own_predictions(self):
        seen = []

        def record(x):
            seen.append(x.copy())
            return float(len(seen))

        window = np.array([10.0, 20.0, 30.0])
        recursive_forecast(record, window, 5)
        np.testing.assert_array_equal(seen[0], [10, 20, 30])
        np.testing.assert_array_equal(seen[1], [20, 30, 1])
        np.testing.assert_array_equal(seen[2], [30, 1, 2])
        np.testing.assert_array_equal(seen[3], [1, 2, 3])
        np.testing.assert_array_equal(seen[4], [2, 3, 4])

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            recursive_forecast(lambda x: 0.0, np.array([1.0]), 0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            recursive_forecast(lambda x: 0.0, np.empty(0), 2)
