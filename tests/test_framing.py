import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conformalts.errors import InvalidInterval, SeriesTooShort
from conformalts.framing import (
    HorizonIntervals,
    PredictionInterval,
    TimeSeries,
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

    def test_covers_is_closed(self):
        iv = PredictionInterval(1.0, 2.0)
        assert iv.covers(1.0)
        assert iv.covers(2.0)
        assert iv.covers(1.5)
        assert not iv.covers(0.999)
        assert not iv.covers(2.001)

    def test_width(self):
        assert PredictionInterval(1.0, 4.0).width == 3.0
        assert PredictionInterval(5.0, 5.0).width == 0.0


class TestHorizonIntervals:
    def test_len_and_iter(self):
        ivs = [PredictionInterval(0.0, 1.0), PredictionInterval(1.0, 2.0)]
        block = HorizonIntervals(origin=11, lower=[0.0, 1.0], upper=[1.0, 2.0])
        assert len(block) == 2
        assert list(block) == ivs
        assert block.origin == 11

    def test_covers_is_closed_elementwise(self):
        block = HorizonIntervals(1, [1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0])
        np.testing.assert_array_equal(
            block.covers([1.0, 2.0, 0.999, 2.001]), [True, True, False, False]
        )

    @pytest.mark.parametrize("pair", [(2.0, 1.0), (np.nan, 1.0), (0.0, -np.inf)])
    def test_rejects_a_bad_pair(self, pair):
        with pytest.raises(InvalidInterval):
            HorizonIntervals(1, [0.0, pair[0]], [1.0, pair[1]])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            HorizonIntervals(1, [0.0, 1.0], [1.0])

    def test_bounds_are_read_only_copies(self):
        lower = np.array([0.0, 1.0])
        block = HorizonIntervals(1, lower, [1.0, 2.0])
        lower[0] = 5.0
        assert block.lower[0] == 0.0
        with pytest.raises(ValueError):
            block.upper[0] = 9.0


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
