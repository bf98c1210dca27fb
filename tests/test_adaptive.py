import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conformalts.adaptive import (
    AciState,
    SlidingScoreWindow,
    aci_update,
    init_gamma,
    sample_without_replacement,
)


class TestAciUpdate:
    def test_cover_raises_level(self):
        state = AciState.fresh(0.1, 0.005, 1)
        aci_update(state, 1, covered=True)
        assert state.alphas[0] == pytest.approx(0.1005, abs=1e-15)

    def test_miss_lowers_level(self):
        state = AciState.fresh(0.1, 0.005, 1)
        aci_update(state, 1, covered=False)
        assert state.alphas[0] == pytest.approx(0.0955, abs=1e-15)

    def test_clamps_at_zero(self):
        state = AciState.fresh(0.1, 0.005, 1)
        state.alphas[0] = 0.002
        aci_update(state, 1, covered=False)
        assert state.alphas[0] == 0.0

    def test_clamps_at_one(self):
        state = AciState.fresh(0.9, 0.5, 1)
        state.alphas[0] = 0.95
        aci_update(state, 1, covered=True)
        assert state.alphas[0] == 1.0

    def test_updates_only_requested_step(self):
        state = AciState.fresh(0.1, 0.01, 4)
        aci_update(state, 3, covered=False)
        np.testing.assert_array_equal(state.alphas[[0, 1, 3]], 0.1)
        assert state.alphas[2] != 0.1

    def test_step_out_of_range(self):
        state = AciState.fresh(0.1, 0.01, 2)
        with pytest.raises(ValueError):
            aci_update(state, 0, covered=True)
        with pytest.raises(ValueError):
            aci_update(state, 3, covered=True)

    def test_all_covered_telescopes(self):
        # k straight covers move the level to alpha * (1 + k * gamma)
        alpha, gamma, k = 0.1, 0.002, 7
        state = AciState.fresh(alpha, gamma, 1)
        for _ in range(k):
            aci_update(state, 1, covered=True)
        assert state.alphas[0] == pytest.approx(alpha * (1 + k * gamma), rel=1e-12)

    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=60),
        gamma=st.floats(1e-5, 2e-3),
    )
    def test_matches_closed_form_without_clamping(self, outcomes, gamma):
        alpha = 0.5
        state = AciState.fresh(alpha, gamma, 1)
        for covered in outcomes:
            aci_update(state, 1, covered)
        n_cov = sum(outcomes)
        n_miss = len(outcomes) - n_cov
        expected = alpha + gamma * (n_cov * alpha - n_miss * (1 - alpha))
        assert state.alphas[0] == pytest.approx(expected, rel=1e-9)

    def test_fresh_validates(self):
        with pytest.raises(ValueError):
            AciState.fresh(0.0, 0.01, 1)
        with pytest.raises(ValueError):
            AciState.fresh(0.1, -0.01, 1)
        with pytest.raises(ValueError):
            AciState.fresh(0.1, 0.01, 0)

    def test_fresh_levels_start_at_target(self):
        state = AciState.fresh(0.2, 0.01, 5)
        np.testing.assert_array_equal(state.alphas, np.full(5, 0.2))


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
