import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conformalts.conformal import (
    conformal_quantile,
    cqr_interval,
    score_absolute,
    score_cqr,
)
from conformalts.errors import EmptyScoreSet, InvalidInterval

from oracles import kth_smallest


class TestScores:
    def test_absolute(self):
        assert score_absolute(3.0, 5.0) == 2.0
        np.testing.assert_array_equal(
            score_absolute(np.array([1.0, 2.0]), np.array([2.0, 0.0])), [1.0, 2.0]
        )

    def test_cqr_inside_is_negative(self):
        assert score_cqr(0.0, 10.0, 4.0) == -4.0

    def test_cqr_below(self):
        assert score_cqr(2.0, 4.0, 1.0) == 1.0

    def test_cqr_above(self):
        assert score_cqr(2.0, 4.0, 7.0) == 3.0

    def test_cqr_on_bound_is_zero(self):
        assert score_cqr(2.0, 4.0, 2.0) == 0.0
        assert score_cqr(2.0, 4.0, 4.0) == 0.0

    def test_cqr_rejects_inverted_band(self):
        with pytest.raises(InvalidInterval):
            score_cqr(4.0, 2.0, 3.0)


class TestConformalQuantile:
    def test_hundred_scores_alpha_point_one(self):
        # k = ceil(101 * 0.9) = 91
        assert conformal_quantile(np.arange(1.0, 101.0), 0.1) == 91.0

    def test_single_score(self):
        for alpha in (0.0, 0.1, 0.5, 1.0):
            assert conformal_quantile([5.0], alpha) == 5.0

    def test_alpha_zero_gives_max(self):
        assert conformal_quantile([3.0, 1.0, 2.0], 0.0) == 3.0

    def test_alpha_one_gives_min(self):
        assert conformal_quantile([3.0, 1.0, 2.0], 1.0) == 1.0

    def test_order_invariance(self):
        scores = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert conformal_quantile(scores, 0.3) == conformal_quantile(sorted(scores), 0.3)

    def test_empty_raises(self):
        with pytest.raises(EmptyScoreSet):
            conformal_quantile([], 0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            conformal_quantile([1.0, np.nan], 0.1)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            conformal_quantile([1.0], -0.01)
        with pytest.raises(ValueError):
            conformal_quantile([1.0], 1.01)

    @given(
        scores=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=60,
        ),
        alpha=st.floats(0.0, 1.0),
    )
    def test_matches_sorted_order_statistic(self, scores, alpha):
        assert conformal_quantile(scores, alpha) == kth_smallest(scores, 1.0 - alpha)

    @given(
        scores=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
        alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @example(scores=[2, 2, 2], alpha=0.0)
    @example(scores=[-1, 0, 0, 3], alpha=1.0)
    def test_heavy_ties_match_counting_rule(self, scores, alpha):
        # smallest observed s with #{scores <= s} >= k, counted, not sorted
        n = len(scores)
        k = min(max(math.ceil((n + 1) * (1.0 - alpha)), 1), n)
        expected = min(s for s in set(scores) if sum(x <= s for x in scores) >= k)
        assert conformal_quantile(scores, alpha) == float(expected)

    @given(
        scores=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=40),
        a1=st.floats(0.0, 1.0),
        a2=st.floats(0.0, 1.0),
    )
    def test_monotone_in_alpha(self, scores, a1, a2):
        lo_alpha, hi_alpha = min(a1, a2), max(a1, a2)
        assert conformal_quantile(scores, lo_alpha) >= conformal_quantile(scores, hi_alpha)

    def test_returned_value_is_an_observed_score(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=17)
        q = conformal_quantile(scores, 0.23)
        assert q in scores


class TestCqrInterval:
    def test_widens_both_sides(self):
        lower, upper = cqr_interval(2.0, 4.0, 1.0)
        assert (lower, upper) == (1.0, 5.0)

    def test_negative_correction_shrinks(self):
        lower, upper = cqr_interval(2.0, 4.0, -0.5)
        assert (lower, upper) == (2.5, 3.5)

    def test_collapses_to_midpoint(self):
        lower, upper = cqr_interval(2.0, 4.0, -2.0)
        assert (lower, upper) == (3.0, 3.0)

    def test_collapse_boundary_exact(self):
        # qhat = -(hi - lo) / 2 still yields the degenerate-but-valid band
        lower, upper = cqr_interval(2.0, 4.0, -1.0)
        assert (lower, upper) == (3.0, 3.0)

    def test_rejects_inverted_band(self):
        with pytest.raises(InvalidInterval):
            cqr_interval(4.0, 2.0, 1.0)

    @given(
        lo=st.floats(-1e3, 1e3),
        width=st.floats(0, 1e3),
        qhat=st.floats(-1e3, 1e3),
    )
    def test_always_a_valid_interval(self, lo, width, qhat):
        lower, upper = cqr_interval(lo, lo + width, qhat)
        assert lower <= upper

    def test_elementwise_with_per_step_corrections(self):
        # each step widens or collapses on its own, exactly as a scalar call
        lo, hi = np.array([2.0, 2.0, 2.0, 0.0]), np.array([4.0, 4.0, 4.0, 3.0])
        qhat = np.array([1.0, -0.5, -2.0, 0.25])
        lower, upper = cqr_interval(lo, hi, qhat)
        np.testing.assert_array_equal(lower, [1.0, 2.5, 3.0, -0.25])
        np.testing.assert_array_equal(upper, [5.0, 3.5, 3.0, 3.25])
        for k in range(lo.size):
            assert cqr_interval(lo[k], hi[k], qhat[k]) == (lower[k], upper[k])

    def test_one_correction_for_every_step(self):
        lower, upper = cqr_interval(np.array([0.0, 1.0]), np.array([0.0, 2.0]), 0.5)
        np.testing.assert_array_equal(lower, [-0.5, 0.5])
        np.testing.assert_array_equal(upper, [0.5, 2.5])

    def test_rejects_any_inverted_pair(self):
        with pytest.raises(InvalidInterval):
            cqr_interval(np.array([0.0, 4.0]), np.array([1.0, 2.0]), 1.0)
