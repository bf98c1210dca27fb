import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conformalts.adaptive import (
    SlidingScoreWindow,
    aci_update,
    init_gamma,
    sample_without_replacement,
)
from conformalts.framing import TimeSeries
from conformalts.pipelines import BootstrapEnsemble, FeedbackStream, run_aenbmimocqr

from oracles import ref_aci_update
from support import make_affine_members, random_index_sets


def one_level(alpha, target, gamma, covered):
    return aci_update(np.array([alpha]), target, gamma, [covered])[0]


class TestAciUpdate:
    def test_cover_raises_level(self):
        assert one_level(0.1, 0.1, 0.005, True) == pytest.approx(0.1005, abs=1e-15)

    def test_miss_lowers_level(self):
        assert one_level(0.1, 0.1, 0.005, False) == pytest.approx(0.0955, abs=1e-15)

    def test_clamps_at_zero(self):
        assert one_level(0.002, 0.1, 0.005, False) == 0.0

    def test_clamps_at_one(self):
        assert one_level(0.95, 0.9, 0.5, True) == 1.0

    def test_each_step_moves_by_its_own_hit(self):
        alphas = aci_update(np.full(4, 0.1), 0.1, 0.01, [True, True, False, True])
        np.testing.assert_array_equal(alphas[[0, 1, 3]], one_level(0.1, 0.1, 0.01, True))
        assert alphas[2] == one_level(0.1, 0.1, 0.01, False)

    def test_fresh_levels_start_at_target(self, rng):
        # before any block is observed, every step's level is the target
        p, H = 2, 3
        train = TimeSeries(rng.normal(size=20).cumsum())
        sets = random_index_sets(2, 20 - p - H + 1, rng)
        lo = BootstrapEnsemble(make_affine_members(2, p, H, 5), sets)
        hi = BootstrapEnsemble(make_affine_members(2, p, H, 12), sets)
        for alpha in (0.1, 0.37):
            result = run_aenbmimocqr(
                train, FeedbackStream(rng.normal(size=2 * H)),
                n_lags=p, horizon=H, alpha=alpha, window_size=10, ensembles=(lo, hi),
            )
            np.testing.assert_array_equal(result.alpha_traces[:, 0], np.full(H, alpha))

    def test_step_out_of_range(self):
        # hits for steps 1..1 or 1..3 against levels for steps 1..2
        for hits in ([True], [True] * 3, [[True, True]]):
            with pytest.raises(ValueError, match="shape"):
                aci_update(np.full(2, 0.1), 0.1, 0.01, hits)

    def test_all_covered_telescopes(self):
        # k straight covers move the level to alpha * (1 + k * gamma)
        alpha, gamma, k = 0.1, 0.002, 7
        alphas = np.array([alpha])
        for _ in range(k):
            alphas = aci_update(alphas, alpha, gamma, [True])
        assert alphas[0] == pytest.approx(alpha * (1 + k * gamma), rel=1e-12)

    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=60),
        gamma=st.floats(1e-5, 2e-3),
    )
    def test_matches_closed_form_without_clamping(self, outcomes, gamma):
        alpha = 0.5
        alphas = np.array([alpha])
        for covered in outcomes:
            alphas = aci_update(alphas, alpha, gamma, [covered])
        n_cov = sum(outcomes)
        n_miss = len(outcomes) - n_cov
        expected = alpha + gamma * (n_cov * alpha - n_miss * (1 - alpha))
        assert alphas[0] == pytest.approx(expected, rel=1e-9)

    @given(
        data=st.data(),
        horizon=st.integers(1, 40),
        target=st.floats(0.01, 0.99),
        gamma=st.sampled_from([0.0, 1.0 / 582, 0.5]),
        n_blocks=st.integers(1, 8),
    )
    def test_equals_scalar_rule_bit_for_bit(self, data, horizon, target, gamma, n_blocks):
        levels = data.draw(st.lists(st.floats(0.0, 1.0), min_size=horizon, max_size=horizon))
        alphas = np.array(levels)
        for _ in range(n_blocks):
            hits = data.draw(st.lists(st.booleans(), min_size=horizon, max_size=horizon))
            alphas = aci_update(alphas, target, gamma, np.array(hits))
            levels = ref_aci_update(levels, target, gamma, hits)
            assert alphas.dtype == np.float64
            np.testing.assert_array_equal(alphas.view(np.int64), np.array(levels).view(np.int64))


class TestInitGamma:
    def test_scores_dominate(self):
        assert init_gamma(100, 543) == 1.0 / 543

    def test_window_dominates(self):
        assert init_gamma(100, 50) == 1.0 / 100

    def test_tie(self):
        assert init_gamma(100, 100) == 0.01

    def test_validates(self):
        with pytest.raises(ValueError):
            init_gamma(0, 5)
        with pytest.raises(ValueError):
            init_gamma(5, 0)


def fifo_reference(rows, batches, width):
    """Plain-list FIFO windows: one append and, past ``width``, one pop from
    the front per score."""
    windows = [list(r) for r in rows]
    for batch in batches:
        for window, scores in zip(windows, batch):
            for v in scores:
                window.append(v)
                if len(window) > width:
                    window.pop(0)
    return windows


finite = st.floats(-100, 100, allow_nan=False)


class TestSlidingScoreWindow:
    def test_fifo_eviction(self):
        w = SlidingScoreWindow([1.0, 2.0, 3.0])
        for v in (4.0, 5.0):
            w.push([v])
        np.testing.assert_array_equal(w.values(), [[3.0, 4.0, 5.0]])

    def test_width_is_fixed_for_life(self):
        w = SlidingScoreWindow([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert w.values().shape == (2, 3)
        w.push([[7.0], [8.0]])
        assert w.values().shape == (2, 3)
        w.push(np.arange(20.0).reshape(2, 10))
        assert w.values().shape == (2, 3)

    def test_values_keep_insertion_order(self):
        w = SlidingScoreWindow([4.0, 1.0, 3.0])
        np.testing.assert_array_equal(w.values(), [[4.0, 1.0, 3.0]])
        w.push([2.0, 0.5])
        np.testing.assert_array_equal(w.values(), [[3.0, 2.0, 0.5]])

    def test_values_are_read_only(self):
        w = SlidingScoreWindow([4.0, 1.0])
        with pytest.raises(ValueError):
            w.values()[0, 0] = 9.0

    def test_rejects_nonfinite(self):
        w = SlidingScoreWindow([1.0, 2.0])
        with pytest.raises(ValueError):
            w.push([np.nan])
        with pytest.raises(ValueError):
            w.push([np.inf])
        with pytest.raises(ValueError):
            SlidingScoreWindow([1.0, np.nan])

    def test_rejects_bad_capacity(self):
        # the width is the initial score count, so it must be at least 1
        with pytest.raises(ValueError):
            SlidingScoreWindow([])
        with pytest.raises(ValueError):
            SlidingScoreWindow(np.empty((3, 0)))

    def test_rejects_batch_of_other_row_count(self):
        w = SlidingScoreWindow([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            w.push([5.0, 6.0])
        with pytest.raises(ValueError):
            w.push(np.ones((3, 1)))

    @given(st.lists(finite, min_size=1, max_size=8), st.lists(finite, max_size=30))
    def test_contents_are_last_capacity_pushes(self, start, values):
        w = SlidingScoreWindow(start)
        for v in values:
            w.push([v])
        np.testing.assert_array_equal(w.values()[0], (start + values)[-len(start):])

    @given(st.data(), st.integers(1, 4), st.integers(1, 8))
    def test_push_equals_fifo_reference(self, data, rows, width):
        start = [data.draw(st.lists(finite, min_size=width, max_size=width))
                 for _ in range(rows)]
        ks = data.draw(st.lists(st.integers(0, 2 * width + 2), max_size=6))
        batches = [[data.draw(st.lists(finite, min_size=k, max_size=k)) for _ in range(rows)]
                   for k in ks]
        w = SlidingScoreWindow(start)
        for batch in batches:
            w.push(np.array(batch, dtype=float).reshape(rows, -1))
        np.testing.assert_array_equal(w.values(), fifo_reference(start, batches, width))

    def test_push_rejects_nonfinite_without_inserting(self):
        w = SlidingScoreWindow([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            w.push([[5.0, 6.0], [7.0, np.nan]])
        np.testing.assert_array_equal(w.values(), [[1.0, 2.0], [3.0, 4.0]])


class TestSampleWithoutReplacement:
    def test_small_set_kept_whole(self):
        vals = sample_without_replacement([3.0, 1.0, 2.0], 10, seed=0)
        np.testing.assert_array_equal(vals, [3.0, 1.0, 2.0])

    def test_small_set_capacity_shrinks_to_fit(self):
        # the window must stay at its starting size: one push, one eviction
        w = SlidingScoreWindow(sample_without_replacement([3.0, 1.0, 2.0], 10, seed=0))
        w.push([9.0])
        np.testing.assert_array_equal(w.values(), [[1.0, 2.0, 9.0]])
        assert w.values().shape == (1, 3)

    def test_rejects_capacity_below_one(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            sample_without_replacement([3.0, 1.0, 2.0], 0, seed=0)

    def test_large_set_thinned_to_capacity(self):
        scores = np.arange(100.0)
        vals = sample_without_replacement(scores, 10, seed=1)
        assert vals.size == 10
        assert set(vals) <= set(scores)

    def test_kept_scores_preserve_relative_order(self):
        scores = np.arange(50.0)
        vals = sample_without_replacement(scores, 20, seed=3)
        assert np.all(np.diff(vals) > 0)

    def test_deterministic_per_seed(self):
        scores = np.random.default_rng(8).normal(size=200)
        a = sample_without_replacement(scores, 30, seed=11)
        b = sample_without_replacement(scores, 30, seed=11)
        c = sample_without_replacement(scores, 30, seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_no_duplicates_drawn(self):
        scores = np.arange(1000.0)
        vals = sample_without_replacement(scores, 500, seed=2)
        assert np.unique(vals).size == 500

    def test_inclusion_frequency_uniform(self, rng):
        # every score should be kept with probability capacity / n
        n, capacity, trials = 40, 10, 3000
        scores = np.arange(float(n))
        counts = np.zeros(n)
        for t in range(trials):
            kept = sample_without_replacement(scores, capacity, seed=t)
            counts[kept.astype(int)] += 1
        freq = counts / trials
        expected = capacity / n
        assert np.all(np.abs(freq - expected) < 0.035)
