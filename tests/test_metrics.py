import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conformalts import metrics
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
        # a range of 2.2e-309 is not zero, but a width of 2 over it overflows
        tiny = [0.0, 0.0, 2.22507386e-309]
        with pytest.raises(ZeroRange):
            pinaw([0.0, 0.0, 0.0], [0.0, 0.0, 2.0], tiny)
        assert pinaw([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], tiny) == 0.0
        # nor can the finite values -1e308 and 1e308, whose range overflows
        with pytest.raises(ZeroRange, match="range overflows"):
            pinaw([0.0, 0.0], [1.0, 1.0], [-1e308, 1e308])

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

    def test_union_that_overflows_rejected(self):
        # each interval's width is finite, their union's is not
        with pytest.raises(InvalidInterval, match="union"):
            miou([-1e308], [0.0], [0.0], [1e308])

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
    # the last pair is finite and ordered, but its width overflows
    @pytest.mark.parametrize("pair", [(2.0, 1.0), (np.nan, 1.0), (0.0, np.inf), (-1e308, 1e308)])
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

    def test_step_below_one_rejected(self):
        # a step-0 interval would count in picp but in no per-step number
        with pytest.raises(LengthMismatch, match="step 0 is below 1"):
            evaluate([0.0, 0.0], [1.0, 1.0], [0.5, 2.0], [0, 1])
        with pytest.raises(LengthMismatch, match="step -3 is below 1"):
            evaluate([0.0, 0.0], [1.0, 1.0], [0.5, 2.0], [1, -3])

    def test_missing_step_found_without_a_per_step_index(self):
        # two rows at steps 1 and 10**6: the gap is found from the steps
        # present, not from one index array per step up to the largest
        tracemalloc.start()
        try:
            with pytest.raises(LengthMismatch, match="step 2$"):
                evaluate(*ivs([(0.0, 1.0), (0.0, 1.0)]), [0.5, 0.8], [1, 10**6])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_alignment_checked(self):
        with pytest.raises(LengthMismatch):
            evaluate(*ivs([(0.0, 1.0)]), [0.5, 0.7], [1])
        with pytest.raises(LengthMismatch):
            evaluate(*ivs([(0.0, 1.0)]), [0.5], [1], reference=ivs([(0.0, 1.0), (0.0, 2.0)]))
        with pytest.raises(LengthMismatch, match="intervals, y and horizons must align"):
            evaluate(*ivs([(0.0, 1.0), (0.0, 1.0)]), [0.5, 0.7], [1])


@st.composite
def scored_rows(draw):
    """Aligned (lower, upper, y, horizons, reference) arrays: every step from
    1 to the largest appears, and y has a non-zero range."""
    n_steps = draw(st.integers(1, 6))
    extra = draw(st.lists(st.integers(1, n_steps), min_size=1, max_size=20))
    horizons = draw(st.permutations(list(range(1, n_steps + 1)) + extra))
    n = len(horizons)

    def column(values):
        return np.asarray(draw(st.lists(values, min_size=n, max_size=n)))

    lower, ref_lower = column(st.floats(-100, 100)), column(st.floats(-100, 100))
    upper, ref_upper = lower + column(st.floats(0, 50)), ref_lower + column(st.floats(0, 50))
    y = column(st.floats(-100, 100))
    assume(np.max(y) > np.min(y))
    return lower, upper, y, np.asarray(horizons), (ref_lower, ref_upper)


class TestEvaluateIsOnePass:
    @given(scored_rows())
    @example((np.zeros(3), np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 2.22507386e-309]),
              np.array([1, 2, 1]), (np.zeros(3), np.array([0.0, 0.0, 2.0]))))
    # finite values whose range, width or union overflows
    @example((np.zeros(2), np.ones(2), np.array([-1e308, 1e308]), np.array([1, 1]),
              (np.zeros(2), np.ones(2))))
    @example((np.array([-1e308, 0.0]), np.array([1e308, 1.0]), np.array([0.0, 1.0]),
              np.array([1, 1]), (np.zeros(2), np.ones(2))))
    @example((np.array([-1e308, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]),
              np.array([1, 1]), (np.zeros(2), np.array([1e308, 1.0]))))
    def test_every_field_is_the_public_metric_on_its_rows(self, rows):
        lower, upper, y, horizons, reference = rows
        try:
            pinaw(lower, upper, y)
            miou(lower, upper, *reference)
        except (ZeroRange, InvalidInterval) as exc:
            # rows a public metric rejects fail evaluate with the same class
            with pytest.raises(type(exc)):
                evaluate(lower, upper, y, horizons, reference)
            return
        steps = [np.flatnonzero(horizons == h) for h in range(1, horizons.max() + 1)]
        span = float(np.max(y) - np.min(y))
        report = evaluate(lower, upper, y, horizons, reference)
        assert report.picp == picp(lower, upper, y)
        assert report.pinaw == pinaw(lower, upper, y)
        assert report.miou == miou(lower, upper, *reference)
        assert report.picp_per_horizon == [picp(lower[i], upper[i], y[i]) for i in steps]
        assert report.pinaw_per_horizon == [float(np.mean((upper - lower)[i]) / span)
                                            for i in steps]
        assert report.miou_per_horizon == [miou(lower[i], upper[i], *(r[i] for r in reference))
                                           for i in steps]
        assert evaluate(lower, upper, y, horizons) == EvalReport(
            report.picp, report.pinaw, None, report.picp_per_horizon,
            report.pinaw_per_horizon, None)

    def test_inputs_are_aligned_and_checked_once(self, monkeypatch):
        calls = []
        original = metrics._aligned

        def spy(name, *columns):
            calls.append(name)
            return original(name, *columns)

        monkeypatch.setattr(metrics, "_aligned", spy)
        horizons = np.tile(np.arange(1, 31), 4)
        lower = np.linspace(0.0, 1.0, horizons.size)
        evaluate(lower, lower + 1.0, lower + 0.5, horizons, (lower, lower + 2.0))
        assert calls == ["evaluate"]


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
