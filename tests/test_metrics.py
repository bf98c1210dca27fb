import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conformalts.errors import EmptyInput, InvalidInterval, LengthMismatch, ZeroRange
from conformalts.metrics import EvalReport, aggregate_star, evaluate, miou, picp, pinaw


def ivs(pairs):
    """(lower, upper) bound arrays of (lo, hi) pairs."""
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


class TestPicp:
    def test_two_of_three_covered(self):
        intervals = ivs([(0.0, 2.0), (0.0, 2.0), (0.0, 2.0)])
        assert picp(*intervals, [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)

    def test_boundary_counts_as_covered(self):
        assert picp(*ivs([(1.0, 3.0)]), [3.0]) == 1.0
        assert picp(*ivs([(1.0, 3.0)]), [1.0]) == 1.0

    def test_none_covered(self):
        assert picp(*ivs([(0.0, 1.0), (0.0, 1.0)]), [5.0, -5.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            picp(*ivs([(0.0, 1.0)]), [0.5, 0.6])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            picp([], [], [])


class TestPinaw:
    def test_worked_example(self):
        # widths 1, 2, 3 with realized range 4: mean(2) / 4 = 0.5
        intervals = ivs([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)])
        assert pinaw(*intervals, [0.0, 2.0, 4.0]) == pytest.approx(0.5)

    def test_zero_range_rejected(self):
        with pytest.raises(ZeroRange):
            pinaw(*ivs([(0.0, 1.0), (0.0, 1.0)]), [2.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pinaw(*ivs([(0.0, 1.0)]), [0.5, 0.6])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            pinaw([], [], [])


class TestMiou:
    def test_overlap_one_third(self):
        # [3,5] vs [4,6]: intersection 1, union 3
        assert miou(*ivs([(3.0, 5.0)]), *ivs([(4.0, 6.0)])) == pytest.approx(1.0 / 3.0)

    def test_disjoint_is_zero(self):
        assert miou(*ivs([(0.0, 1.0)]), *ivs([(2.0, 3.0)])) == 0.0

    def test_identical_is_one(self):
        assert miou(*ivs([(1.5, 4.0)]), *ivs([(1.5, 4.0)])) == 1.0

    def test_identical_points_are_one(self):
        assert miou(*ivs([(2.0, 2.0)]), *ivs([(2.0, 2.0)])) == 1.0

    def test_point_inside_interval_is_zero(self):
        # zero-width intersection over positive union
        assert miou(*ivs([(2.0, 2.0)]), *ivs([(1.0, 3.0)])) == 0.0

    def test_nested_intervals(self):
        assert miou(*ivs([(1.0, 2.0)]), *ivs([(0.0, 4.0)])) == pytest.approx(0.25)

    def test_mean_over_pairs(self):
        a = ivs([(3.0, 5.0), (0.0, 1.0)])
        b = ivs([(4.0, 6.0), (0.0, 1.0)])
        assert miou(*a, *b) == pytest.approx((1.0 / 3.0 + 1.0) / 2.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            miou(*ivs([(0.0, 1.0)]), *ivs([(0.0, 1.0), (0.0, 2.0)]))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            miou([], [], [], [])

    def test_symmetric(self, rng):
        a = ivs([tuple(sorted(rng.normal(size=2))) for _ in range(20)])
        b = ivs([tuple(sorted(rng.normal(size=2))) for _ in range(20)])
        assert miou(*a, *b) == pytest.approx(miou(*b, *a), rel=1e-14)

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50), st.floats(0, 10), st.floats(-50, 50), st.floats(0, 10)
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_brute_force_recount(self, quads):
        a = [(lo, lo + w) for lo, w, _, _ in quads]
        b = [(lo, lo + w) for _, _, lo, w in quads]
        total = 0.0
        for (x_lo, x_hi), (y_lo, y_hi) in zip(a, b):
            union = max(x_hi, y_hi) - min(x_lo, y_lo)
            inter = min(x_hi, y_hi) - max(x_lo, y_lo)
            total += 1.0 if union == 0.0 else max(inter, 0.0) / union
        assert miou(*ivs(a), *ivs(b)) == pytest.approx(total / len(quads), rel=1e-12, abs=1e-12)


class TestBoundsChecked:
    @pytest.mark.parametrize("pair", [(2.0, 1.0), (np.nan, 1.0), (0.0, np.inf)])
    def test_every_metric_rejects_a_bad_pair(self, pair):
        lower, upper = ivs([(0.0, 1.0), pair])
        with pytest.raises(InvalidInterval):
            picp(lower, upper, [0.5, 0.5])
        with pytest.raises(InvalidInterval):
            pinaw(lower, upper, [0.0, 1.0])
        with pytest.raises(InvalidInterval):
            evaluate(lower, upper, [0.0, 1.0], [1, 1])
        good = ivs([(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(InvalidInterval):
            miou(*good, lower, upper)
        with pytest.raises(InvalidInterval):
            miou(lower, upper, *good)


class TestEvaluate:
    def test_per_horizon_breakdown(self):
        intervals = ivs([(0.0, 2.0), (1.0, 5.0), (0.0, 2.0), (0.0, 4.0)])
        y = [1.0, 5.0, 3.0, 4.0]
        horizons = [1, 2, 1, 2]
        report = evaluate(*intervals, y, horizons)
        # step 1 covers y=1 but not y=3; step 2 covers both on its bounds
        assert report.picp == pytest.approx(3.0 / 4.0)
        # range of y is 4; step 1 widths (2, 2), step 2 widths (4, 4)
        assert report.pinaw_per_horizon == pytest.approx([0.5, 1.0])
        assert report.picp_per_horizon == pytest.approx([0.5, 1.0])
        assert report.pinaw == pytest.approx(0.75)
        assert report.miou is None
        assert report.miou_per_horizon is None

    def test_per_horizon_normalizer_is_global_range(self):
        intervals = ivs([(0.0, 1.0), (0.0, 1.0)])
        y = [0.0, 10.0]
        report = evaluate(*intervals, y, [1, 2])
        assert report.pinaw_per_horizon == pytest.approx([0.1, 0.1])

    def test_with_reference(self):
        intervals = ivs([(3.0, 5.0), (0.0, 1.0)])
        reference = ivs([(4.0, 6.0), (0.0, 1.0)])
        report = evaluate(*intervals, [4.0, 0.5], [1, 2], reference)
        assert report.miou == pytest.approx((1.0 / 3.0 + 1.0) / 2.0)
        assert report.miou_per_horizon == pytest.approx([1.0 / 3.0, 1.0])

    def test_missing_horizon_step_rejected(self):
        # max step is 2 but no interval carries step 1
        with pytest.raises(LengthMismatch):
            evaluate(*ivs([(0.0, 1.0), (0.0, 1.0)]), [0.5, 0.8], [2, 2])

    def test_alignment_checked(self):
        with pytest.raises(LengthMismatch):
            evaluate(*ivs([(0.0, 1.0)]), [0.5, 0.7], [1])
        with pytest.raises(LengthMismatch):
            evaluate(*ivs([(0.0, 1.0)]), [0.5], [1], reference=ivs([(0.0, 1.0), (0.0, 2.0)]))


class TestAggregateStar:
    def test_unweighted_mean(self):
        reports = [
            EvalReport(0.8, 0.2, 0.5, [], [], []),
            EvalReport(1.0, 0.4, 0.7, [], [], []),
        ]
        s = aggregate_star(reports)
        assert s == (pytest.approx(0.9), pytest.approx(0.3), pytest.approx(0.6))

    def test_miou_none_propagates(self):
        reports = [
            EvalReport(0.8, 0.2, 0.5, [], [], []),
            EvalReport(1.0, 0.4, None, [], [], None),
        ]
        picp_star, pinaw_star, miou_star = aggregate_star(reports)
        assert miou_star is None
        assert picp_star == pytest.approx(0.9)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            aggregate_star([])
