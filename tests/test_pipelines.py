import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conformalts import pipelines, quantile_net
from conformalts.adaptive import aci_update, init_gamma
from conformalts.data import SyntheticConfig, gen_synthetic, split_train_test
from conformalts.errors import (
    AllRowsInBag,
    ConfigError,
    DimensionMismatch,
    InvalidInterval,
    SeriesTooShort,
)
from conformalts.framing import (
    SupervisedFrame,
    TimeSeries,
    covered,
    frame_mimo,
    frame_recursive,
)
from conformalts.pipelines import (
    BootstrapEnsemble,
    FeedbackStream,
    fit_ensemble,
    oob_predict,
    run_aenbmimocqr,
    run_enbcqr,
    run_enbpi,
    run_mimocqr,
)
from conformalts.quantile_net import QuantileNet, TrainConfig
from conformalts.seeding import derive_seed
from support import (
    make_affine_member,
    make_affine_members,
    make_constant_member,
    make_lag_member,
    random_index_sets,
)


def assert_blocks_match(result, expected):
    """A run's blocks against a re-simulation's, origin by origin."""
    assert result.n_blocks == len(expected)
    for origin, lower, upper, ref in zip(result.origins, result.lower, result.upper, expected):
        assert origin == ref["origin"]
        lo_ref, hi_ref = np.transpose(ref["intervals"])
        assert lower == pytest.approx(lo_ref, abs=1e-10)
        assert upper == pytest.approx(hi_ref, abs=1e-10)


class TestFeedbackStream:
    def test_reveal_before_submit_rejected(self):
        stream = FeedbackStream([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            stream.reveal(1)

    def test_reveal_beyond_submitted_rejected(self):
        stream = FeedbackStream([1.0, 2.0, 3.0, 4.0])
        stream.submit(2)
        with pytest.raises(ValueError):
            stream.reveal(3)

    def test_submit_overrun_rejected(self):
        stream = FeedbackStream([1.0, 2.0])
        with pytest.raises(ValueError):
            stream.submit(3)

    def test_reveal_returns_committed_steps(self):
        stream = FeedbackStream([10.0, 20.0, 30.0, 40.0])
        stream.submit(2)
        np.testing.assert_array_equal(stream.reveal(2), [10.0, 20.0])
        stream.submit(2)
        np.testing.assert_array_equal(stream.reveal(2), [30.0, 40.0])
        assert stream.n_submitted == 4
        assert stream.n_revealed == 4

    def test_events_are_logged_in_order(self):
        stream = FeedbackStream([1.0, 2.0, 3.0, 4.0])
        stream.submit(2)
        stream.reveal(2)
        stream.submit(2)
        stream.reveal(2)
        assert stream.events == [
            ("submit", 0, 2),
            ("reveal", 0, 2),
            ("submit", 2, 2),
            ("reveal", 2, 2),
        ]

    def test_accepts_time_series(self):
        stream = FeedbackStream(TimeSeries(np.array([1.0, 2.0])))
        assert len(stream) == 2

    @given(
        n=st.integers(1, 12),
        calls=st.lists(
            st.tuples(st.sampled_from(["submit", "reveal"]), st.integers(-1, 6)), max_size=30
        ),
    )
    def test_any_call_sequence_keeps_reveals_behind_submits(self, n, calls):
        values = np.arange(n, dtype=float)
        stream = FeedbackStream(values)
        accepted = []
        for kind, k in calls:
            before = (stream.n_submitted, stream.n_revealed)
            try:
                if kind == "submit":
                    stream.submit(k)
                    accepted.append((kind, before[0], k))
                else:
                    out = stream.reveal(k)
                    np.testing.assert_array_equal(out, values[before[1]: before[1] + k])
                    accepted.append((kind, before[1], k))
            except ValueError:
                assert (stream.n_submitted, stream.n_revealed) == before
            assert 0 <= stream.n_revealed <= stream.n_submitted <= len(stream)
            assert stream.events == accepted

    def test_rejects_empty_or_nonfinite(self):
        with pytest.raises(ValueError):
            FeedbackStream([])
        with pytest.raises(ValueError):
            FeedbackStream([1.0, np.nan])


class TestRunResult:
    def test_arrays_are_read_only(self, rng):
        members = make_affine_members(2, 2, 1, 5)
        result = run_mimocqr(
            TimeSeries(rng.uniform(size=20)), FeedbackStream(rng.uniform(size=2)),
            n_lags=2, horizon=1, alpha=0.1, models=(members[0], members[1]),
        )
        for values in (result.origins, result.lower, result.upper, result.y):
            with pytest.raises(ValueError):
                values[0] = 9


class TestBootstrapEnsemble:
    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            BootstrapEnsemble([make_constant_member([1.0])], [np.array([0])])

    def test_one_index_set_per_member(self):
        members = [make_constant_member([1.0]), make_constant_member([2.0])]
        with pytest.raises(ValueError):
            BootstrapEnsemble(members, [np.array([0])])

    def test_predict_mean(self):
        ens = BootstrapEnsemble(
            [make_constant_member([1.0, 3.0], p=2), make_constant_member([3.0, 5.0], p=2)],
            [np.array([0]), np.array([0])],
        )
        np.testing.assert_array_equal(ens.predict_mean(np.zeros((1, 2))), [[2.0, 4.0]])


def trained_ensemble(horizon, hidden):
    """Ten briefly trained median nets on 6-lag windows of a random walk."""
    values = np.random.default_rng(5).normal(size=60).cumsum()
    frame = frame_mimo(TimeSeries(values), 6, horizon)
    (ens,) = fit_ensemble(frame, (0.5,), 10, 5, TrainConfig(epochs=3, hidden=hidden))
    return ens


def member_loop(ens, X, batch=False):
    """The members' mean, one member at a time: each one's ``predict`` at
    every row of X, or with ``batch`` each one's ``predict_batch`` over X."""
    X = np.asarray(X, dtype=float)
    if batch:
        return np.mean([m.predict_batch(X) for m in ens.members], axis=0)
    return np.array([np.mean([m.predict(x) for m in ens.members], axis=0) for x in X])


class TestStackedMembers:
    """QuantileNet members of one shape predict through one stacked pass,
    bit for bit equal to the per-member loop."""

    # (16, 8, 4) runs forward through three ReLU layers; horizon 30 is the
    # benchmark's MIMO output width
    @pytest.mark.parametrize("hidden", [(4,), (64, 64), (16, 8, 4)])
    @pytest.mark.parametrize("horizon", [1, 5, 30])
    def test_bitwise_equal_to_member_loop(self, rng, hidden, horizon):
        ens = trained_ensemble(horizon, hidden)
        X = rng.normal(size=(7, 6)).cumsum(axis=1)
        rows = ens.predict_mean(X)
        assert rows.shape == (7, horizon)
        for x, row in zip(X, rows):
            expected = np.mean([m.predict(x) for m in ens.members], axis=0)
            assert np.array_equal(ens.predict_mean(x[None]), expected[None])
            assert np.array_equal(row, expected)
        assert ens._layers

    @pytest.mark.parametrize("hidden", [(4,), (64, 64), (16, 8, 4)])
    @pytest.mark.parametrize("horizon", [1, 5, 30])
    @pytest.mark.parametrize("n_rows", [1, 7, 30, 582])  # 582: the benchmark's MIMO frame
    def test_batch_bitwise_equal_to_member_batches(self, rng, hidden, horizon, n_rows):
        ens = trained_ensemble(horizon, hidden)
        X = rng.normal(size=(n_rows, 6)).cumsum(axis=1)
        expected = np.mean([m.predict_batch(X) for m in ens.members], axis=0)
        got = ens.predict_mean_batch(X)
        assert got.shape == (n_rows, horizon)
        assert np.array_equal(got, expected)

    def test_wrong_width_window_rejected(self):
        ens = trained_ensemble(2, (4,))
        with pytest.raises(DimensionMismatch):
            ens.predict_mean(np.zeros((1, 7)))
        with pytest.raises(DimensionMismatch):
            ens.predict_mean(np.zeros((3, 5)))
        with pytest.raises(DimensionMismatch):
            ens.predict_mean(np.zeros(6))
        with pytest.raises(DimensionMismatch):
            ens.predict_mean_batch(np.zeros((3, 5)))
        with pytest.raises(DimensionMismatch):
            ens.predict_mean_batch(np.zeros(6))

    def test_members_of_mixed_shape_or_type_rejected(self):
        net = trained_ensemble(2, (4,)).members[0]
        wider = trained_ensemble(2, (5,)).members[0]
        affine = make_affine_member(6, 2, 3)
        for members in ([net, wider], [net, affine], [net, net.predict]):
            with pytest.raises(ValueError, match="QuantileNets of one shape"):
                BootstrapEnsemble(members, [np.array([0])] * 2)

    def test_fortran_ordered_weights_stack_bitwise(self, rng):
        net = trained_ensemble(2, (64, 64)).members[0]
        fortran = QuantileNet([np.asfortranarray(w) for w in net.weights], net.biases, net.tau)
        assert all(w.flags.c_contiguous for w in fortran.weights)
        ens = BootstrapEnsemble([net, fortran], [np.array([0])] * 2)
        X = rng.normal(size=(7, 6)).cumsum(axis=1)
        assert np.array_equal(ens.predict_mean(X[:1]), member_loop(ens, X[:1]))
        assert np.array_equal(ens.predict_mean(X), member_loop(ens, X))
        assert np.array_equal(ens.predict_mean_batch(X), member_loop(ens, X, batch=True))

    def test_recursive_runners_equal_generic_path(self, monkeypatch):
        values = np.random.default_rng(8).normal(size=70).cumsum()
        train, test = TimeSeries(values[:60]), values[60:]
        frame = frame_recursive(train, 6)
        cfg = TrainConfig(epochs=3, hidden=(32, 32))
        (point,) = fit_ensemble(frame, (None,), 10, 4, cfg)
        bands = tuple(fit_ensemble(frame, (0.05, 0.5, 0.95), 10, 4, cfg))
        mimo = frame_mimo(train, 6, 5)
        mimo_bands = tuple(fit_ensemble(mimo, (0.05, 0.95), 10, 4, cfg))
        common = dict(n_lags=6, horizon=5, alpha=0.1)

        def runs():
            return [
                run_enbpi(train, FeedbackStream(test), ensembles=(point,), **common),
                run_enbcqr(train, FeedbackStream(test), ensembles=bands, **common),
                run_aenbmimocqr(train, FeedbackStream(test), ensembles=mimo_bands,
                                window_size=20, **common),
            ]

        stacked = runs()
        monkeypatch.setattr(BootstrapEnsemble, "predict_mean", member_loop)
        monkeypatch.setattr(BootstrapEnsemble, "predict_mean_batch",
                            lambda ens, X: member_loop(ens, X, batch=True))
        for fast, generic in zip(stacked, runs()):
            for a, b in ((fast.lower, generic.lower), (fast.upper, generic.upper)):
                assert a.size == 10 and np.array_equal(a, b)


class TestFitEnsemble:
    def test_rejects_single_model(self, rng):
        frame = SupervisedFrame(rng.normal(size=(20, 2)), rng.normal(size=(20, 1)))
        with pytest.raises(ValueError):
            fit_ensemble(frame, (0.5,), 1, seed=0, config=TrainConfig(epochs=1, hidden=(1,)))

    def test_resamples_are_with_replacement_size_n(self, rng):
        frame = SupervisedFrame(rng.normal(size=(150, 1)), rng.normal(size=(150, 1)))
        (ens,) = fit_ensemble(frame, (None,), 30, seed=4,
                              config=TrainConfig(epochs=1, hidden=(1,)))
        assert all(idx.size == 150 for idx in ens.index_sets)
        assert all(0 <= idx.min() and idx.max() < 150 for idx in ens.index_sets)
        # a size-n resample leaves each row out with probability (1 - 1/n)^n,
        # about exp(-1)
        out_fracs = [1.0 - np.unique(idx).size / 150.0 for idx in ens.index_sets]
        assert abs(float(np.mean(out_fracs)) - np.exp(-1)) < 0.03

    def test_same_seed_same_resamples_across_tau(self, rng):
        frame = SupervisedFrame(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)))
        cfg = TrainConfig(epochs=1, hidden=(1,))
        (lo,) = fit_ensemble(frame, (0.05,), 2, seed=9, config=cfg)
        (hi,) = fit_ensemble(frame, (0.95,), 2, seed=9, config=cfg)
        for a, b in zip(lo.index_sets, hi.index_sets):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("taus", [(0.05, 0.95), (None,)], ids=["pinball", "mse"])
    def test_one_row_frame_rejected_before_any_training(self, training_calls, rng, taus):
        # the one row is in every bag, so no row would have an out-of-bag score
        frame = SupervisedFrame(rng.normal(size=(1, 3)), rng.normal(size=(1, 2)))
        with pytest.raises(SeriesTooShort,
                           match="at least 2 frame rows, the training frame has 1"):
            fit_ensemble(frame, taus, 3, seed=0, config=TrainConfig(epochs=1, hidden=(1,)))
        assert training_calls == []

    def test_one_call_shares_bags_across_levels(self, rng):
        # one bag draw serves every level; member b of each level is the net
        # trained on bag b's distinct rows, weighted by their counts, at
        # derive_seed(seed, "member", b, "mse" or str(tau))
        frame = SupervisedFrame(rng.normal(size=(25, 3)), rng.normal(size=(25, 2)))
        cfg, taus = TrainConfig(epochs=3, hidden=(4,)), (0.05, None, 0.95)
        ensembles = fit_ensemble(frame, taus, 3, seed=13, config=cfg)
        assert len(ensembles) == len(taus)
        bags = ensembles[0].index_sets
        for tau, ens in zip(taus, ensembles):
            assert len(ens.index_sets) == 3
            for b, (member, idx) in enumerate(zip(ens.members, ens.index_sets)):
                np.testing.assert_array_equal(idx, bags[b])
                assert member.tau == tau
                rows, counts = np.unique(idx, return_counts=True)
                sub = SupervisedFrame(frame.covariates[rows], frame.targets[rows])
                member_seed = derive_seed(13, "member", b, "mse" if tau is None else str(tau))
                direct = (quantile_net.mse_train(sub, cfg, member_seed, counts) if tau is None
                          else quantile_net.train(sub, tau, cfg, member_seed, counts))
                for got, want in zip(member.weights + member.biases,
                                     direct.weights + direct.biases):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("tau", [0.05, None])
    def test_member_is_a_net_trained_on_its_rows_at_its_seed(self, rng, tau):
        # the member seed scheme, derive_seed(seed, "member", b, "mse" or
        # str(tau)), over the distinct rows of the member's bootstrap bag,
        # each weighted by how often the bag drew it
        frame = SupervisedFrame(rng.normal(size=(25, 3)), rng.normal(size=(25, 2)))
        cfg = TrainConfig(epochs=3, hidden=(4,))
        (ens,) = fit_ensemble(frame, (tau,), 3, seed=13, config=cfg)
        for b, (member, idx) in enumerate(zip(ens.members, ens.index_sets)):
            rows, counts = np.unique(idx, return_counts=True)
            assert counts.sum() == idx.size and np.any(counts > 1)  # a bag with repeats
            sub = SupervisedFrame(frame.covariates[rows], frame.targets[rows])
            member_seed = derive_seed(13, "member", b, "mse" if tau is None else str(tau))
            direct = (quantile_net.mse_train(sub, cfg, member_seed, counts) if tau is None
                      else quantile_net.train(sub, tau, cfg, member_seed, counts))
            for got, want in zip(member.weights + member.biases, direct.weights + direct.biases):
                np.testing.assert_array_equal(got, want)

    def test_mimocqr_nets_are_trained_on_the_fit_rows_at_their_seeds(self, rng):
        series = TimeSeries(rng.normal(size=44).cumsum())
        train_ts, test = TimeSeries(series.values[:38]), series.values[38:]
        cfg, alpha = TrainConfig(epochs=3, hidden=(4,)), 0.1
        common = dict(n_lags=3, horizon=2, alpha=alpha, cal_fraction=0.5, seed=7)
        frame = frame_mimo(train_ts, 3, 2)
        n_fit = frame.n_rows - int(frame.n_rows * 0.5)
        sub = SupervisedFrame(frame.covariates[:n_fit], frame.targets[:n_fit])
        models = tuple(
            quantile_net.train(sub, tau, cfg, derive_seed(7, "mimocqr", side))
            for tau, side in ((alpha / 2.0, "lo"), (1.0 - alpha / 2.0, "hi")))
        trained = run_mimocqr(train_ts, FeedbackStream(test), config=cfg, **common)
        injected = run_mimocqr(train_ts, FeedbackStream(test), models=models, **common)
        np.testing.assert_array_equal(trained.lower, injected.lower)
        np.testing.assert_array_equal(trained.upper, injected.upper)


class TestOobPredict:
    def test_two_bag_worked_example(self):
        # three rows; bag 1 saw rows {1, 2}, bag 2 saw rows {2, 3} (1-based).
        # Row 1 is out of bag only for member 2, row 3 only for member 1,
        # row 2 is in both bags and has no out-of-bag prediction.
        frame = SupervisedFrame(np.zeros((3, 2)), np.zeros((3, 1)))
        ens = BootstrapEnsemble(
            [make_constant_member([10.0], p=2), make_constant_member([20.0], p=2)],
            [np.array([0, 1]), np.array([1, 2])],
        )
        preds, kept = oob_predict(ens, frame)
        np.testing.assert_array_equal(kept, [True, False, True])
        assert preds[0, 0] == 20.0
        assert preds[2, 0] == 10.0
        assert np.isnan(preds[1, 0])

    def test_mean_over_excluding_members(self):
        frame = SupervisedFrame(np.zeros((2, 1)), np.zeros((2, 1)))
        ens = BootstrapEnsemble(
            [make_constant_member([4.0]), make_constant_member([8.0])],
            [np.array([1]), np.array([1])],
        )
        preds, kept = oob_predict(ens, frame)
        assert preds[0, 0] == 6.0
        assert not kept[1]

    def test_all_rows_in_every_bag(self):
        frame = SupervisedFrame(np.zeros((3, 1)), np.zeros((3, 1)))
        ens = BootstrapEnsemble(
            [make_constant_member([1.0]), make_constant_member([2.0])],
            [np.arange(3), np.arange(3)],
        )
        with pytest.raises(AllRowsInBag):
            oob_predict(ens, frame)

    def test_index_out_of_range(self):
        frame = SupervisedFrame(np.zeros((3, 1)), np.zeros((3, 1)))
        ens = BootstrapEnsemble(
            [make_constant_member([1.0]), make_constant_member([2.0])],
            [np.array([0, 5]), np.array([1])],
        )
        with pytest.raises(ValueError):
            oob_predict(ens, frame)


def affine_ensembles(p, H, n_rows, seed, rng):
    index_sets = random_index_sets(2, n_rows, rng)
    lo = BootstrapEnsemble(make_affine_members(2, p, H, seed), index_sets)
    hi = BootstrapEnsemble(make_affine_members(2, p, H, seed + 7), index_sets)
    return lo, hi, index_sets


class TestAdaptiveRunner:
    def test_matches_plain_resimulation(self, rng):
        p, H = 2, 2
        series = TimeSeries(rng.normal(size=20).cumsum())
        train, test = series.values[:12], series.values[12:]
        n_rows = 12 - p - H + 1
        lo, hi, index_sets = affine_ensembles(p, H, n_rows, 31, rng)

        result = run_aenbmimocqr(
            TimeSeries(train), FeedbackStream(test),
            n_lags=p, horizon=H, alpha=0.2, window_size=50,
            ensembles=(lo, hi),
        )
        expected = oracles.sim_aenbmimocqr(
            train, test, p, H, 0.2,
            lo.members, hi.members, index_sets, T=50,
        )
        assert_blocks_match(result, expected)
        for k, ref in enumerate(expected):
            np.testing.assert_allclose(result.alpha_traces[:, k + 1], ref["alphas"], atol=1e-12)

    def test_block_adds_horizon_raw_band_scores_per_step(self):
        # lag-1 members give the band [x - 1, x + 1] at every step. Training
        # is flat, so the three out-of-bag scores are all -1 and fill the
        # windows. The block reveals y = (3, 5); each step's window gains
        # the scores of both values against the raw band of the forecast
        # that targeted them, h steps earlier:
        #   step 1: 3 from x = 0 scores 2, 5 from x = 3 scores 1
        #   step 2: 3 from x = 0 scores 2, 5 from x = 0 scores 4
        # and keeps one training score. The second block's band is [4, 6];
        # with adaptation off, alpha 0.1, 0.5 and 0.9 pick the largest,
        # middle and smallest window score as the correction.
        lo_member = make_lag_member(1, [-1.0, -1.0])
        hi_member = make_lag_member(1, [1.0, 1.0])
        sets = [np.array([], dtype=int), np.arange(3)]
        expected = {1: [2.0, 1.0, -1.0], 2: [4.0, 2.0, -1.0]}
        for k, alpha in enumerate((0.1, 0.5, 0.9)):
            result = run_aenbmimocqr(
                TimeSeries(np.zeros(5)), FeedbackStream([3.0, 5.0, 0.0, 0.0]),
                n_lags=1, horizon=2, alpha=alpha, window_size=3,
                ensembles=(BootstrapEnsemble([lo_member] * 2, sets),
                           BootstrapEnsemble([hi_member] * 2, sets)),
                gamma_override=0.0,
            )
            for h in (1, 2):
                assert (result.lower[1, h - 1], result.upper[1, h - 1]) == (
                    4.0 - expected[h][k], 6.0 + expected[h][k])

    def test_exchangeable_coverage(self):
        # a fixed band that is too narrow for N(0, 1) noise, i.i.d. train
        # and test values: the walk must still reach the 0.90 target. The
        # slack is three binomial standard errors of the pooled count.
        p, H, alpha, T = 2, 5, 0.1, 100
        n_train, n_blocks, seeds = 200, 100, range(5)
        n_rows = n_train - p - H + 1
        sets = [np.array([], dtype=int), np.arange(n_rows)]
        lo = make_constant_member([-0.5] * H, p)
        hi = make_constant_member([0.5] * H, p)
        n_covered = 0
        for seed in seeds:
            values = np.random.default_rng(seed).normal(size=n_train + n_blocks * H)
            result = run_aenbmimocqr(
                TimeSeries(values[:n_train]), FeedbackStream(values[n_train:]),
                n_lags=p, horizon=H, alpha=alpha, window_size=T,
                ensembles=(BootstrapEnsemble([lo, lo], sets),
                           BootstrapEnsemble([hi, hi], sets)),
            )
            n_covered += int(covered(result.lower, result.upper, result.y).sum())
        n = len(seeds) * n_blocks * H
        slack = 3.0 * np.sqrt(alpha * (1.0 - alpha) / n)
        assert n_covered / n >= 1.0 - alpha - slack

    def test_gamma_from_pre_thinning_score_count(self, rng):
        # the adaptation rate comes from the larger of the window capacity
        # and the score count as it stood before any thinning: T=100 beats
        # 8 scores (gamma = 1/100), T=4 does not (gamma = 1/8). One covered
        # block then moves alpha_h by exactly gamma * alpha.
        p, H, alpha = 2, 1, 0.1
        train = TimeSeries(rng.uniform(0.5, 1.0, size=10))  # 8 supervised rows
        band = [make_constant_member([-50.0], p), make_constant_member([50.0], p)]
        # an empty first bag leaves every row with an out-of-bag prediction
        sets = [np.array([], dtype=int), np.arange(8)]
        for T, expected_gamma in ((100, 1.0 / 100), (4, 1.0 / 8)):
            result = run_aenbmimocqr(
                train, FeedbackStream(np.zeros(1)),
                n_lags=p, horizon=H, alpha=alpha, window_size=T,
                ensembles=(
                    BootstrapEnsemble([band[0], band[0]], sets),
                    BootstrapEnsemble([band[1], band[1]], sets),
                ),
            )
            # scores are y - 50 for targets y in (0.5, 1), so the corrected
            # interval is [-y_max, y_max] and the realized 0.0 is covered
            step = result.alpha_traces[0, 1] - result.alpha_traces[0, 0]
            assert step == pytest.approx(expected_gamma * alpha, rel=1e-12)

    def test_alpha_telescopes_while_covered(self, rng):
        # realized zeros always land inside the corrected band (see the
        # gamma test above for why), so after k straight covered blocks
        # alpha_h = alpha * (1 + k * gamma)
        p, H, alpha, T = 2, 2, 0.1, 100
        train = TimeSeries(rng.uniform(0.5, 1.0, size=14))
        n_rows = 14 - p - H + 1
        sets = [np.array([], dtype=int), np.arange(n_rows)]
        lo = BootstrapEnsemble(
            [make_constant_member([-99.0, -99.0], p)] * 2, sets
        )
        hi = BootstrapEnsemble(
            [make_constant_member([99.0, 99.0], p)] * 2, sets
        )
        result = run_aenbmimocqr(
            train, FeedbackStream(np.zeros(8)),
            n_lags=p, horizon=H, alpha=alpha, window_size=T,
            ensembles=(lo, hi),
        )
        gamma = 1.0 / T
        for k in range(result.n_blocks + 1):
            np.testing.assert_allclose(
                result.alpha_traces[:, k], alpha * (1 + k * gamma), rtol=1e-12
            )

    def test_window_sizes_stay_constant(self, rng, window_widths):
        p, H = 2, 2
        series = TimeSeries(rng.normal(size=30).cumsum())
        train, test = series.values[:22], series.values[22:]
        n_rows = 22 - p - H + 1  # 19 supervised rows before out-of-bag skips
        lo, hi, _ = affine_ensembles(p, H, n_rows, 5, rng)
        for T in (6, 100):
            window_widths.clear()
            result = run_aenbmimocqr(
                TimeSeries(train), FeedbackStream(test),
                n_lags=p, horizon=H, alpha=0.1, window_size=T,
                ensembles=(lo, hi),
            )
            kept = n_rows - result.skipped_oob_rows
            assert kept > T or T == 100  # both regimes exercised
            assert window_widths == [[min(T, kept)] * (result.n_blocks + 1)]

    def test_gamma_override_zero_freezes_levels(self, rng):
        p, H = 2, 2
        series = TimeSeries(rng.normal(size=24).cumsum())
        train, test = series.values[:16], series.values[16:]
        lo, hi, _ = affine_ensembles(p, H, 16 - p - H + 1, 3, rng)
        result = run_aenbmimocqr(
            TimeSeries(train), FeedbackStream(test),
            n_lags=p, horizon=H, alpha=0.1, window_size=100,
            ensembles=(lo, hi), gamma_override=0.0,
        )
        np.testing.assert_array_equal(result.alpha_traces, 0.1)

    def test_single_block_equals_frozen_split_run(self, rng):
        # with one test block, identical members everywhere and adaptation
        # pinned off, the adaptive runner reduces to the split runner
        # calibrated on every row
        p, H = 3, 2
        series = TimeSeries(rng.normal(size=26).cumsum())
        train, test = series.values[:24], series.values[24:]
        members = make_affine_members(2, p, H, 77)
        n_rows = 24 - p - H + 1
        sets = [np.array([], dtype=int), np.arange(n_rows)]
        adaptive = run_aenbmimocqr(
            TimeSeries(train), FeedbackStream(test),
            n_lags=p, horizon=H, alpha=0.1, window_size=n_rows,
            ensembles=(
                BootstrapEnsemble([members[0], members[0]], sets),
                BootstrapEnsemble([members[1], members[1]], sets),
            ),
            gamma_override=0.0,
        )
        frozen = run_mimocqr(
            TimeSeries(train), FeedbackStream(test),
            n_lags=p, horizon=H, alpha=0.1, cal_fraction=1.0,
            models=(members[0], members[1]),
        )
        for name in ("origins", "lower", "upper", "y"):
            np.testing.assert_array_equal(getattr(adaptive, name), getattr(frozen, name))

    def test_mismatched_index_sets_rejected(self, rng):
        p, H = 2, 2
        train = TimeSeries(rng.uniform(size=14))
        n_rows = 14 - p - H + 1
        lo = BootstrapEnsemble(make_affine_members(2, p, H, 1), random_index_sets(2, n_rows, rng))
        hi = BootstrapEnsemble(make_affine_members(2, p, H, 2), random_index_sets(2, n_rows, rng))
        with pytest.raises(ValueError):
            run_aenbmimocqr(
                train, FeedbackStream(rng.uniform(size=4)),
                n_lags=p, horizon=H, alpha=0.1, ensembles=(lo, hi),
            )

    def test_skipped_rows_counted(self, window_widths):
        # row 0 sits in both bags, so it has no out-of-bag prediction
        train = TimeSeries(np.linspace(0.0, 1.0, 7))
        n_rows = 7 - 2 - 1 + 1  # p=2, H=1 -> 5 rows
        sets = [np.array([0, 1, 2]), np.array([0, 3, 4])]
        members = make_affine_members(2, 2, 1, 13)
        result = run_aenbmimocqr(
            train, FeedbackStream(np.array([0.5])),
            n_lags=2, horizon=1, alpha=0.1, window_size=100,
            ensembles=(
                BootstrapEnsemble(members, sets),
                BootstrapEnsemble(make_affine_members(2, 2, 1, 14), sets),
            ),
        )
        assert result.skipped_oob_rows == 1
        assert window_widths == [[n_rows - 1] * 2]

    def test_stream_length_must_be_block_multiple(self, rng):
        train = TimeSeries(rng.uniform(size=14))
        lo, hi, _ = affine_ensembles(2, 2, 11, 1, rng)
        with pytest.raises(ValueError):
            run_aenbmimocqr(
                train, FeedbackStream(rng.uniform(size=5)),
                n_lags=2, horizon=2, alpha=0.1, ensembles=(lo, hi),
            )

    def test_consumed_stream_rejected(self, rng):
        train = TimeSeries(rng.uniform(size=14))
        lo, hi, _ = affine_ensembles(2, 2, 11, 1, rng)
        stream = FeedbackStream(rng.uniform(size=4))
        stream.submit(2)
        with pytest.raises(ValueError):
            run_aenbmimocqr(
                train, stream, n_lags=2, horizon=2, alpha=0.1, ensembles=(lo, hi)
            )

    def test_flat_layout(self, rng):
        p, H = 2, 3
        series = TimeSeries(rng.normal(size=26).cumsum())
        train, test = series.values[:20], series.values[20:]
        lo, hi, _ = affine_ensembles(p, H, 20 - p - H + 1, 21, rng)
        result = run_aenbmimocqr(
            TimeSeries(train), FeedbackStream(test),
            n_lags=p, horizon=H, alpha=0.1, window_size=100, ensembles=(lo, hi),
        )
        assert (result.n_blocks, result.horizon) == (2, 3)
        assert result.lower.shape == result.upper.shape == (2, 3)
        np.testing.assert_array_equal(result.origins, [21, 24])
        # row-major flattening walks the test segment in time order
        np.testing.assert_array_equal(result.y.ravel(), test)


class TestSplitRunner:
    def test_matches_plain_resimulation(self, rng):
        p, H = 3, 2
        series = TimeSeries(rng.normal(size=30).cumsum())
        train, test = series.values[:22], series.values[22:]
        members = make_affine_members(2, p, H, 55)
        result = run_mimocqr(
            TimeSeries(train), FeedbackStream(test),
            n_lags=p, horizon=H, alpha=0.2, cal_fraction=0.4,
            models=(members[0], members[1]),
        )
        expected = oracles.sim_mimocqr(
            train, test, p, H, 0.2, members[0], members[1], cal_fraction=0.4
        )
        assert_blocks_match(result, expected)

    def test_perfect_models_give_point_intervals(self):
        # models that output the true continuation produce zero scores, a
        # zero correction and degenerate intervals that still cover
        values = np.arange(1.0, 21.0)  # next values are x[-1]+1, x[-1]+2

        truth = make_lag_member(3, [1.0, 2.0])
        result = run_mimocqr(
            TimeSeries(values[:16]), FeedbackStream(values[16:]),
            n_lags=3, horizon=2, alpha=0.1, cal_fraction=0.5,
            models=(truth, truth),
        )
        np.testing.assert_array_equal(result.lower, result.y)
        np.testing.assert_array_equal(result.upper, result.y)

    def test_constant_offset_band_shrinks_back(self):
        # lower/upper sit exactly 1 below/above the truth on a constant
        # series: every score is -1, so the correction trims the band to a
        # point at the true value
        values = np.full(20, 5.0)
        lo = make_constant_member([4.0], p=2)
        hi = make_constant_member([6.0], p=2)
        result = run_mimocqr(
            TimeSeries(values[:15]), FeedbackStream(values[15:]),
            n_lags=2, horizon=1, alpha=0.1, cal_fraction=0.5,
            models=(lo, hi),
        )
        assert np.all(result.lower == 5.0) and np.all(result.upper == 5.0)

    def test_split_coverage_on_exchangeable_scores(self):
        # i.i.d. N(0, 1) values and a band that ignores the lag window make
        # each step's calibration scores exchangeable with its test scores,
        # so every test point is covered with probability in
        # [1 - alpha, 1 - alpha + 1 / (n_cal + 1)]. The slack is three
        # standard errors of the seed-averaged coverage: per seed, the
        # conditional coverage of the calibrated quantile varies by about
        # alpha (1 - alpha) / n_cal and the test count adds the binomial
        # alpha (1 - alpha) / n_test.
        p, H, alpha, cal_fraction = 2, 5, 0.1, 0.5
        n_train, n_blocks, seeds = 400, 100, range(20)
        n_cal = int((n_train - p - H + 1) * cal_fraction)
        n_test = n_blocks * H
        lo = make_constant_member([-0.5] * H, p)
        hi = make_constant_member([0.5] * H, p)
        coverage = []
        for seed in seeds:
            values = np.random.default_rng(seed).normal(size=n_train + n_test)
            result = run_mimocqr(
                TimeSeries(values[:n_train]), FeedbackStream(values[n_train:]),
                n_lags=p, horizon=H, alpha=alpha, cal_fraction=cal_fraction,
                models=(lo, hi),
            )
            coverage.append(np.mean(covered(result.lower, result.upper, result.y)))
        slack = 3.0 * np.sqrt(alpha * (1.0 - alpha) * (1.0 / n_cal + 1.0 / n_test) / len(seeds))
        mean = float(np.mean(coverage))
        assert mean >= 1.0 - alpha - slack
        assert mean <= 1.0 - alpha + 1.0 / (n_cal + 1) + slack

    def test_non_finite_bound_rejected_before_submit(self):
        # the nets put weight -/+1.7e307 on the last lag: the band is finite
        # while x[-1] <= 7 but overflows to -/+inf once 12 ends the lag
        # window, at block 3's origin: the walk raises there without
        # submitting the block
        def member(weight):
            W = np.zeros((3, 2))
            W[-1] = weight
            return QuantileNet([W], [np.zeros(2)], None)

        stream = FeedbackStream([6.0, 7.0, 11.0, 12.0, 13.0, 14.0])
        with pytest.raises(InvalidInterval), np.errstate(over="ignore", invalid="ignore"):
            run_mimocqr(
                TimeSeries(np.linspace(1.0, 5.0, 20)), stream,
                n_lags=3, horizon=2, alpha=0.1, models=(member(-1.7e307), member(1.7e307)),
            )
        assert stream.events[-1] == ("reveal", 2, 2)

    def test_cal_fraction_bounds(self, rng):
        train = TimeSeries(rng.uniform(size=20))
        members = make_affine_members(2, 2, 1, 5)
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError):
                run_mimocqr(
                    train, FeedbackStream(rng.uniform(size=2)),
                    n_lags=2, horizon=1, alpha=0.1, cal_fraction=bad,
                    models=(members[0], members[1]),
                )

    def test_no_adaptive_state(self, rng, window_widths):
        train = TimeSeries(rng.uniform(size=20))
        members = make_affine_members(2, 2, 1, 5)
        result = run_mimocqr(
            train, FeedbackStream(rng.uniform(size=2)),
            n_lags=2, horizon=1, alpha=0.1, models=(members[0], members[1]),
        )
        assert result.alpha_traces is None
        assert window_widths == []


class TestEnbpiRunner:
    def test_matches_plain_resimulation(self, rng):
        p, H = 2, 2
        series = TimeSeries(rng.normal(size=26).cumsum())
        train, test = series.values[:20], series.values[20:]
        n_rows = 20 - p
        index_sets = random_index_sets(2, n_rows, rng)
        members = make_affine_members(2, p, 1, 91)
        result = run_enbpi(
            TimeSeries(train), FeedbackStream(test),
            n_lags=p, horizon=H, alpha=0.2,
            ensembles=(BootstrapEnsemble(members, index_sets),),
        )
        expected = oracles.sim_enbpi(train, test, p, H, 0.2, members, index_sets)
        assert_blocks_match(result, expected)

    def test_echo_members_on_constant_series(self):
        # an echo forecaster is exact on a constant series, so residuals and
        # the correction are zero and every interval is the point itself
        values = np.full(24, 3.0)

        echo = make_lag_member(2, [0.0])
        sets = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        result = run_enbpi(
            TimeSeries(values[:18]), FeedbackStream(values[18:]),
            n_lags=2, horizon=3, alpha=0.1,
            ensembles=(BootstrapEnsemble([echo, echo], sets),),
        )
        assert np.all(result.lower == 3.0) and np.all(result.upper == 3.0)
        assert covered(result.lower, result.upper, 3.0).all()

    def test_intervals_symmetric_around_points(self, rng):
        p, H = 2, 2
        series = TimeSeries(rng.normal(size=26).cumsum())
        train, test = series.values[:20], series.values[20:]
        members = make_affine_members(2, p, 1, 17)
        result = run_enbpi(
            TimeSeries(train), FeedbackStream(test),
            n_lags=p, horizon=H, alpha=0.2,
            ensembles=(BootstrapEnsemble(members, random_index_sets(2, 18, rng)),),
        )
        widths = result.upper - result.lower
        # one shared correction per block: all widths in a block equal
        assert widths[0, 0] == pytest.approx(widths[0, 1], rel=1e-12)

    def test_bounds_equal_enbcqr_with_its_ensemble_as_the_band(self, monkeypatch, rng):
        # enbpi skips the band prediction; enbcqr with one ensemble in all
        # three places takes the general branch and must give the same bounds
        values = np.random.default_rng(8).normal(size=70).cumsum()
        train, test = TimeSeries(values[:60]), values[60:]
        frame = frame_recursive(train, 6)
        (trained,) = fit_ensemble(frame, (None,), 4, 4, TrainConfig(epochs=5, hidden=(4,)))
        stand_in = BootstrapEnsemble(make_affine_members(3, 6, 1, 5),
                                     random_index_sets(3, frame.n_rows, rng))
        oob_calls = []

        def counted_oob(ens, fr):
            oob_calls.append(ens)
            return oob_predict(ens, fr)

        monkeypatch.setattr(pipelines, "oob_predict", counted_oob)
        common = dict(n_lags=6, horizon=5, alpha=0.1)
        for e in (trained, stand_in):
            enbpi = run_enbpi(train, FeedbackStream(test), ensembles=(e,), **common)
            assert oob_calls == [e]
            enbcqr = run_enbcqr(train, FeedbackStream(test), ensembles=(e, e, e), **common)
            oob_calls.clear()
            for a, b in ((enbpi.lower, enbcqr.lower), (enbpi.upper, enbcqr.upper)):
                assert a.size == 10 and np.array_equal(a, b)


class TestEnbcqrRunner:
    def test_matches_plain_resimulation(self, rng):
        p, H = 2, 2
        series = TimeSeries(rng.normal(size=28).cumsum())
        train, test = series.values[:22], series.values[22:]
        n_rows = 22 - p
        index_sets = random_index_sets(2, n_rows, rng)
        lo_m = make_affine_members(2, p, 1, 41)
        med_m = make_affine_members(2, p, 1, 42)
        hi_m = make_affine_members(2, p, 1, 43)
        result = run_enbcqr(
            TimeSeries(train), FeedbackStream(test),
            n_lags=p, horizon=H, alpha=0.2,
            ensembles=(
                BootstrapEnsemble(lo_m, index_sets),
                BootstrapEnsemble(med_m, index_sets),
                BootstrapEnsemble(hi_m, index_sets),
            ),
        )
        expected = oracles.sim_enbcqr(
            train, test, p, H, 0.2, lo_m, med_m, hi_m, index_sets
        )
        assert_blocks_match(result, expected)

    def test_identical_quantile_heads_collapse_to_points(self):
        values = np.full(20, 4.0)

        echo = make_lag_member(2, [0.0])
        sets = [np.array([0, 1]), np.array([2, 3])]
        ens = BootstrapEnsemble([echo, echo], sets)
        result = run_enbcqr(
            TimeSeries(values[:16]), FeedbackStream(values[16:]),
            n_lags=2, horizon=2, alpha=0.1,
            ensembles=(ens, ens, ens),
        )
        assert np.all(result.lower == 4.0) and np.all(result.upper == 4.0)

    def test_requires_shared_index_sets(self, rng):
        p = 2
        train = TimeSeries(rng.uniform(size=16))
        a = BootstrapEnsemble(make_affine_members(2, p, 1, 1), random_index_sets(2, 14, rng))
        b = BootstrapEnsemble(make_affine_members(2, p, 1, 2), random_index_sets(2, 14, rng))
        with pytest.raises(ValueError):
            run_enbcqr(
                train, FeedbackStream(rng.uniform(size=2)),
                n_lags=p, horizon=1, alpha=0.1, ensembles=(a, b, a),
            )


class TestRecursiveWalkPredictions:
    """Every ensemble prediction of a recursive walk is a ``predict_mean``
    call: one per recursion step, plus enbcqr's two band calls per block."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("predict_mean", "predict_mean_batch"):
            def spy(ens, X, _name=name, _method=getattr(BootstrapEnsemble, name)):
                calls.append((_name, np.shape(X)))
                return _method(ens, X)
            monkeypatch.setattr(BootstrapEnsemble, name, spy)
        return calls

    @pytest.mark.parametrize("H", [1, 3])
    def test_call_counts(self, calls, rng, H):
        p, n_blocks = 2, 4
        train, test = TimeSeries(rng.normal(size=20).cumsum()), rng.normal(size=n_blocks * H)
        ens = [BootstrapEnsemble(make_affine_members(2, p, 1, seed),
                                 [np.arange(0, 9), np.arange(9, 18)]) for seed in (1, 2, 3)]
        common = dict(n_lags=p, horizon=H, alpha=0.2)
        run_enbpi(train, FeedbackStream(test), ensembles=ens[1:2], **common)
        assert calls == [("predict_mean", (1, p))] * (n_blocks * H)
        calls.clear()
        run_enbcqr(train, FeedbackStream(test), ensembles=ens, **common)
        block = [("predict_mean", (1, p))] * H + [("predict_mean", (H, p))] * 2
        assert calls == block * n_blocks


class TestCorrectionCount:
    """The walk takes one row-wise conformal quantile before the first
    block, and a sliding runner one more after each block; a frozen one
    takes no more."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def spy(scores, alpha, _quantile=pipelines.conformal_quantile):
            calls.append(np.shape(scores))
            return _quantile(scores, alpha)
        monkeypatch.setattr(pipelines, "conformal_quantile", spy)
        return calls

    @pytest.mark.parametrize("method, after_each_block", [
        ("aenbmimocqr", True), ("mimocqr", False), ("enbpi", True), ("enbcqr", True)])
    def test_one_quantile_call_per_correction(self, calls, rng, method, after_each_block):
        p, H, n_blocks = 2, 3, 4
        train, test = TimeSeries(rng.normal(size=30).cumsum()), rng.normal(size=n_blocks * H)
        sets = random_index_sets(2, frame_recursive(train, p).n_rows, rng)
        injected = {
            "aenbmimocqr": dict(ensembles=affine_ensembles(
                p, H, frame_mimo(train, p, H).n_rows, 31, rng)[:2]),
            "mimocqr": dict(models=tuple(make_affine_members(2, p, H, 5))),
            "enbpi": dict(ensembles=[BootstrapEnsemble(make_affine_members(2, p, 1, 1), sets)]),
            "enbcqr": dict(ensembles=[BootstrapEnsemble(make_affine_members(2, p, 1, s), sets)
                                      for s in (1, 2, 3)]),
        }[method]
        runner = getattr(pipelines, f"run_{method}")
        result = runner(train, FeedbackStream(test), n_lags=p, horizon=H, alpha=0.2, **injected)
        assert result.n_blocks == n_blocks
        assert len(calls) == (n_blocks + 1 if after_each_block else 1)


@pytest.fixture
def training_calls(monkeypatch):
    """Every training call a runner makes; each one fails the test."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a model was trained")

    for name in ("fit_ensemble", "train", "mse_train"):
        monkeypatch.setattr(pipelines, name, spy)
    return calls


RUNNERS = [run_aenbmimocqr, run_mimocqr, run_enbpi, run_enbcqr]


@pytest.mark.parametrize("name", ["run_aenbmimocqr", "run_mimocqr", "run_enbpi", "run_enbcqr"])
def test_runner_keeps_its_name_through_a_pickle(name):
    # test ids and tracebacks read a runner's name; the recursive runners
    # are partials of one walk, named like the others
    assert pickle.loads(pickle.dumps(getattr(pipelines, name))).__name__ == name


class TestAlphaCheck:
    @pytest.mark.parametrize("runner", RUNNERS)
    # at 1e-17 the upper level 1 - alpha / 2 rounds to 1.0
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, 1e-17])
    def test_rejected_before_any_training(self, training_calls, rng, runner, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            runner(
                TimeSeries(rng.uniform(size=40)), FeedbackStream(rng.uniform(size=4)),
                n_lags=3, horizon=2, alpha=alpha,
            )
        assert training_calls == []


class TestHorizonCheck:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_zero_horizon_rejected_before_any_training(self, training_calls, rng, runner):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            runner(
                TimeSeries(rng.uniform(size=40)), FeedbackStream(rng.uniform(size=4)),
                n_lags=3, horizon=0, alpha=0.1,
            )
        assert training_calls == []


class TestGammaCheck:
    @pytest.mark.parametrize("gamma", [-0.01, float("nan"), float("inf")])
    def test_bad_gamma_rejected_before_any_training(self, training_calls, rng, gamma):
        with pytest.raises(ValueError, match="gamma"):
            run_aenbmimocqr(
                TimeSeries(rng.uniform(size=40)), FeedbackStream(rng.uniform(size=4)),
                n_lags=3, horizon=2, alpha=0.1, gamma_override=gamma,
            )
        assert training_calls == []


class TestWindowSizeCheck:
    @pytest.mark.parametrize("window_size", [0, -1])
    def test_rejected_before_any_training(self, training_calls, rng, window_size):
        with pytest.raises(ValueError, match="window_size"):
            run_aenbmimocqr(
                TimeSeries(rng.uniform(size=40)), FeedbackStream(rng.uniform(size=4)),
                n_lags=3, horizon=2, alpha=0.1, window_size=window_size,
            )
        assert training_calls == []


class TestCalFractionRange:
    def test_only_injected_nets_calibrate_on_every_row(self, training_calls, rng):
        train, test = TimeSeries(rng.uniform(size=20)), rng.uniform(size=2)
        common = dict(n_lags=2, horizon=1, alpha=0.1, cal_fraction=1.0)
        with pytest.raises(ConfigError, match=r"cal_fraction must be in \(0, 1\)") as excinfo:
            run_mimocqr(train, FeedbackStream(test), **common)
        assert excinfo.value.args[1:] == ("cal_fraction",)
        # the keyword survives a worker pool's pickling
        restored = pickle.loads(pickle.dumps(excinfo.value))
        assert (str(restored), restored.args) == (str(excinfo.value), excinfo.value.args)
        assert training_calls == []
        members = make_affine_members(2, 2, 1, 5)
        result = run_mimocqr(train, FeedbackStream(test), models=tuple(members), **common)
        assert result.n_blocks == 2


class TestTrainedRunners:
    """End-to-end smoke runs with real (tiny) network training."""

    CFG = TrainConfig(epochs=3, hidden=(4,))

    def test_adaptive_run_is_repeatable(self, rng):
        series = TimeSeries(rng.normal(size=40).cumsum())
        train, test = series.values[:34], series.values[34:]
        results = [
            run_aenbmimocqr(
                TimeSeries(train), FeedbackStream(test),
                n_lags=3, horizon=2, alpha=0.1, n_models=2, window_size=20,
                seed=11, config=self.CFG,
            )
            for _ in range(2)
        ]
        a, b = results
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
        np.testing.assert_array_equal(a.alpha_traces, b.alpha_traces)

    def test_all_methods_produce_valid_blocks(self, rng):
        series = TimeSeries(rng.normal(size=44).cumsum())
        train, test = TimeSeries(series.values[:38]), series.values[38:]
        common = dict(n_lags=3, horizon=2, alpha=0.1, seed=7, config=self.CFG)
        runs = [
            run_aenbmimocqr(train, FeedbackStream(test), n_models=2, window_size=15, **common),
            run_mimocqr(train, FeedbackStream(test), cal_fraction=0.5, **common),
            run_enbpi(train, FeedbackStream(test), n_models=2, **common),
            run_enbcqr(train, FeedbackStream(test), n_models=2, **common),
        ]
        for result in runs:
            assert result.n_blocks == 3
            assert result.lower.shape == result.upper.shape == result.y.shape == (3, 2)
            assert np.all(result.lower <= result.upper)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_alpha_traces_replay_aci_update_and_stay_off_the_clamp(self, seed):
        # the miss-rate bound that criterion 3 checks on aci_update alone
        # assumes the runner applies exactly that update to each block's
        # coverage and never clamps a level into 0 or 1
        alpha, p, H, T = 0.1, 40, 30, 100
        series, _ = gen_synthetic(SyntheticConfig(length=2151, seed=seed))
        train, test = split_train_test(series, 1500)
        result = run_aenbmimocqr(
            train, FeedbackStream(test), n_lags=p, horizon=H, alpha=alpha,
            n_models=10, window_size=T, seed=seed, config=TrainConfig(epochs=5),
        )
        n_scored = frame_mimo(train, p, H).n_rows - result.skipped_oob_rows
        gamma = init_gamma(T, n_scored)
        # every level starts at the target, and each block moves them once
        rows = [np.full(H, alpha)]
        for lower, upper, y in zip(result.lower, result.upper, result.y):
            rows.append(aci_update(rows[-1], alpha, gamma, covered(lower, upper, y)))
        assert np.array_equal(np.asarray(rows).T, result.alpha_traces)
        assert result.alpha_traces.shape == (H, 1500 // H + 1)
        assert np.all((result.alpha_traces > 0.0) & (result.alpha_traces < 1.0))


class TestInjectedEnsembles:
    """A bagged runner's ``ensembles=`` is the list ``fit_ensemble`` returns
    for the runner's levels, on the runner's frame."""

    P, H, ALPHA = 6, 5, 0.1
    LO, HI = ALPHA / 2.0, 1.0 - ALPHA / 2.0
    # runner, its frame's target width, its levels
    BAGGED = {
        "aenbmimocqr": (run_aenbmimocqr, H, (LO, HI)),
        "enbpi": (run_enbpi, 1, (None,)),
        "enbcqr": (run_enbcqr, 1, (LO, 0.5, HI)),
    }

    @pytest.mark.parametrize("method", BAGGED)
    def test_one_model_is_rejected_with_injected_ensembles_too(self, training_calls, method):
        runner, width, taus = self.BAGGED[method]
        sets = [np.arange(3), np.arange(1, 4)]
        ensembles = [BootstrapEnsemble(make_affine_members(2, self.P, width, 7), sets)
                     for _ in taus]
        values = np.random.default_rng(5).normal(size=60).cumsum()
        with pytest.raises(ConfigError, match="n_models must be >= 2, got 1"):
            runner(TimeSeries(values[:50]), FeedbackStream(values[50:]), n_lags=self.P,
                   horizon=self.H, alpha=self.ALPHA, n_models=1, ensembles=ensembles)
        assert training_calls == []

    @pytest.mark.parametrize("method", BAGGED)
    def test_injected_fit_is_the_trained_run(self, method):
        runner, width, taus = self.BAGGED[method]
        values = np.random.default_rng(5).normal(size=60).cumsum()
        train, test = TimeSeries(values[:50]), values[50:]
        cfg = TrainConfig(epochs=3, hidden=(8,))
        common = dict(n_lags=self.P, horizon=self.H, alpha=self.ALPHA, seed=4, config=cfg)
        trained = runner(train, FeedbackStream(test), n_models=3, **common)
        ensembles = fit_ensemble(frame_mimo(train, self.P, width), taus, 3, 4, cfg)
        injected = runner(train, FeedbackStream(test), ensembles=ensembles, **common)
        for field in dataclasses.fields(pipelines.RunResult):
            a, b = getattr(trained, field.name), getattr(injected, field.name)
            assert (a is None and b is None) or (
                np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes())

    @pytest.mark.parametrize("method, count", [("aenbmimocqr", 1), ("enbpi", 2), ("enbcqr", 2)])
    def test_wrong_ensemble_count_rejected_before_any_block(self, rng, method, count):
        runner, width, _ = self.BAGGED[method]
        train = TimeSeries(rng.normal(size=50).cumsum())
        n_rows = frame_mimo(train, self.P, width).n_rows
        e = BootstrapEnsemble(make_affine_members(2, self.P, width, 1),
                              random_index_sets(2, n_rows, rng))
        stream = FeedbackStream(rng.normal(size=10))
        with pytest.raises(ValueError, match="one per level"):
            runner(train, stream, n_lags=self.P, horizon=self.H, alpha=self.ALPHA,
                   ensembles=(e,) * count)
        assert stream.events == []


class TestInjectedWidths:
    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("wrong", ["inputs", "outputs"])
    def test_rejected_before_any_block(self, training_calls, rng, runner, wrong):
        # at p 3 and H 4 a MIMO net maps 3 lags to 4 steps, a recursive one to 1
        width = 4 if runner in (run_aenbmimocqr, run_mimocqr) else 1
        n_in, n_out = (2, width) if wrong == "inputs" else (3, width + 1)
        nets = make_affine_members(2, n_in, n_out, 5)
        if runner is run_mimocqr:
            injected = dict(models=tuple(nets))
        else:
            n_levels = {run_aenbmimocqr: 2, run_enbpi: 1, run_enbcqr: 3}[runner]
            ens = BootstrapEnsemble(nets, random_index_sets(2, 30, rng))
            injected = dict(ensembles=[ens] * n_levels)
        stream = FeedbackStream(rng.uniform(size=4))
        with pytest.raises(DimensionMismatch, match=f"maps {n_in} inputs to {n_out} outputs; "
                                                    f"the frame needs 3 to {width}"):
            runner(TimeSeries(rng.uniform(size=40)), stream,
                   n_lags=3, horizon=4, alpha=0.1, **injected)
        assert stream.n_submitted == 0
