import numpy as np
import pytest

import oracles
from oracles import pinball_loss
from conformalts import quantile_net
from conformalts.errors import ConfigError, DimensionMismatch, InvalidTau, NonFiniteLoss
from conformalts.framing import SupervisedFrame, TimeSeries, frame_mimo, frame_recursive
from conformalts.quantile_net import (
    QuantileNet,
    TrainConfig,
    init_net,
    loss_and_gradients,
    mse_train,
    train,
)
from conformalts.seeding import spawn_rng


def small_frame(rng, n_rows=60, n_lags=3, horizon=2):
    X = rng.normal(size=(n_rows, n_lags))
    Y = rng.normal(size=(n_rows, horizon))
    return SupervisedFrame(X, Y)


class TestPinballLoss:
    def test_overprediction(self):
        # y=1, y_hat=3: u=-2, tau=0.9 -> max(-1.8, 0.2) = 0.2
        assert pinball_loss(1.0, 3.0, 0.9) == pytest.approx(0.2)

    def test_underprediction(self):
        # y=3, y_hat=1: u=2, tau=0.9 -> max(1.8, -0.2) = 1.8
        assert pinball_loss(3.0, 1.0, 0.9) == pytest.approx(1.8)

    def test_zero_residual(self):
        assert pinball_loss(2.0, 2.0, 0.3) == 0.0

    def test_array_mean(self):
        y = np.array([1.0, 3.0])
        y_hat = np.array([3.0, 1.0])
        assert pinball_loss(y, y_hat, 0.9) == pytest.approx((0.2 + 1.8) / 2)

    def test_tau_bounds(self):
        with pytest.raises(InvalidTau):
            pinball_loss(1.0, 1.0, 0.0)
        with pytest.raises(InvalidTau):
            pinball_loss(1.0, 1.0, 1.0)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 1000
        assert cfg.learning_rate == 1e-3
        assert cfg.hidden == (64, 64)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(hidden=())
        with pytest.raises(ConfigError):
            TrainConfig(hidden=(64, 0))

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ConfigError, match=f"learning_rate .*got {lr}"):
            TrainConfig(learning_rate=float(lr))


class TestQuantileNet:
    def test_manual_zero_weight_net_returns_bias(self):
        net = QuantileNet(
            weights=[np.zeros((2, 3)), np.zeros((3, 2))],
            biases=[np.zeros(3), np.array([5.0, -1.0])],
            tau=0.5,
        )
        np.testing.assert_array_equal(net.predict([7.0, 8.0]), [5.0, -1.0])

    def test_layer_sizes(self):
        net = init_net(5, 3, (8, 4), None, seed=0)
        assert net.layer_sizes == (5, 8, 4, 3)
        assert net.layer_sizes[-1] == 3

    def test_predict_dimension_mismatch(self):
        net = init_net(3, 1, (4,), 0.5, seed=0)
        with pytest.raises(DimensionMismatch):
            net.predict([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            net.predict_batch(np.ones((5, 2)))

    def test_bad_tau(self):
        with pytest.raises(InvalidTau):
            QuantileNet([np.zeros((1, 1))], [np.zeros(1)], tau=1.5)

    def test_init_weights_within_fan_in_bound(self):
        net = init_net(16, 2, (9,), 0.5, seed=3)
        assert np.all(np.abs(net.weights[0]) <= 1.0 / 4.0)
        assert np.all(np.abs(net.weights[1]) <= 1.0 / 3.0)
        np.testing.assert_array_equal(net.biases[0], 0.0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestForwardBuffers:
    """``forward(layers, X, outs)`` writes layer k's output into ``outs[k]``
    and returns ``outs[-1]``: bit for bit the allocating call, with ``X``
    left as it was."""

    @staticmethod
    def _nets(rng, count):
        # random biases, so the in-place bias add is seen
        return [QuantileNet(net.weights, [rng.normal(size=b.shape) for b in net.biases], 0.5)
                for net in (init_net(5, 3, (8, 4), 0.5, seed=s) for s in range(count))]

    @staticmethod
    def _check(layers, X):
        X_bits = _bits(X).copy()
        want = quantile_net.forward(layers, X)
        # layer k's output is the first k + 1 layers' pass, ReLU'd but for the last
        prefixes = [quantile_net.forward(layers[:k + 1], X) for k in range(len(layers))]
        expected = [np.maximum(z, 0.0) for z in prefixes[:-1]] + [prefixes[-1]]
        outs = [np.full(z.shape, np.nan) for z in prefixes]
        got = quantile_net.forward(layers, X, outs)
        assert got is outs[-1]
        assert np.array_equal(_bits(got), _bits(want))
        for out, z in zip(outs, expected):
            assert np.array_equal(_bits(out), _bits(z))
        assert np.array_equal(_bits(X), X_bits)
        assert np.any(outs[0] == 0.0) and np.any(outs[0] > 0.0)  # the ReLU acted

    def test_single_net_rows(self, rng):
        (net,) = self._nets(rng, 1)
        self._check(list(zip(net.weights, net.biases)), rng.normal(size=(7, 5)))

    def test_stack_given_windows(self, rng):
        layers = quantile_net.stack_layers(self._nets(rng, 3))
        self._check(layers, rng.normal(size=(7, 1, 1, 5)))

    def test_stack_given_rows(self, rng):
        layers = quantile_net.stack_layers(self._nets(rng, 3))
        self._check(layers, rng.normal(size=(7, 5)))


class TestGradients:
    # the ids name the loss each tau selects
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9, None],
                             ids=["pinball-0.1", "pinball-0.5", "pinball-0.9", "squared-None"])
    def test_matches_finite_differences(self, rng, tau):
        X = rng.normal(size=(12, 3))
        Y = rng.normal(size=(12, 2))
        net = init_net(3, 2, (5,), tau, seed=1)
        # keep residuals away from the pinball kink so the finite difference
        # is taken on a smooth patch
        _, _, out = _forward(net, X)
        assert np.min(np.abs(Y - out)) > 1e-3

        loss, grad_w, grad_b = loss_and_gradients(net, X, Y)
        h = 1e-5
        checked = 0
        for params, grads in ((net.weights, grad_w), (net.biases, grad_b)):
            for p, g in zip(params, grads):
                flat_p = p.reshape(-1)
                flat_g = g.reshape(-1)
                idx = rng.choice(flat_p.size, size=min(10, flat_p.size), replace=False)
                for i in idx:
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    up, _, _ = loss_and_gradients(net, X, Y)
                    flat_p[i] = orig - h
                    down, _, _ = loss_and_gradients(net, X, Y)
                    flat_p[i] = orig
                    fd = (up - down) / (2 * h)
                    if abs(fd) > 1e-12:
                        assert abs(flat_g[i] - fd) / abs(fd) < 1e-4
                    else:
                        assert abs(flat_g[i]) < 1e-8
                    checked += 1
        assert checked >= 25

    def test_loss_agrees_with_pinball_helper(self, rng):
        net = init_net(3, 2, (4,), 0.7, seed=2)
        X = rng.normal(size=(9, 3))
        Y = rng.normal(size=(9, 2))
        loss, _, _ = loss_and_gradients(net, X, Y)
        assert loss == pytest.approx(pinball_loss(Y, net.predict_batch(X), 0.7), rel=1e-12)


def _bag(n_rows, seed):
    """A bootstrap bag drawn as ``pipelines.fit_ensemble`` draws its first
    one, and its distinct rows with their counts."""
    idx = spawn_rng(seed, "bootstrap").integers(0, n_rows, size=n_rows)
    rows, counts = np.unique(idx, return_counts=True)
    assert counts.max() > 1  # the bag repeats rows, so the weights are not all 1
    return idx, rows, counts


class TestCountWeights:
    """A bag's distinct rows weighted by their counts give the loss and the
    gradients of the bag's gathered rows, up to rounding."""

    @pytest.mark.parametrize("hidden", [(4,), (64, 64)], ids=["hidden-4", "hidden-64-64"])
    @pytest.mark.parametrize("tau", [0.05, None], ids=["pinball-0.05", "squared-None"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_distinct_rows_with_counts_equal_gathered_rows(self, hidden, tau, seed):
        frame = _kernel_frames()["mimo"]
        X, Y = frame.covariates, frame.targets
        idx, rows, counts = _bag(frame.n_rows, seed)
        net = init_net(frame.n_lags, frame.horizon, hidden, tau, seed=seed)
        gathered = loss_and_gradients(net, X[idx], Y[idx])
        weighted = loss_and_gradients(net, X[rows], Y[rows], counts)
        assert weighted[0] == pytest.approx(gathered[0], rel=1e-12, abs=0.0)
        for got, want in zip(weighted[1] + weighted[2], gathered[1] + gathered[2]):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("counts", [[1, 2], [1, 0, 2], [1.0, 2.0, 1.0], [[1, 2, 1]]],
                             ids=["short", "zero", "float", "2-d"])
    def test_counts_are_one_positive_integer_per_row(self, rng, counts):
        net = init_net(2, 1, (3,), 0.5, seed=0)
        X, Y = rng.normal(size=(3, 2)), rng.normal(size=(3, 1))
        with pytest.raises(ValueError, match="counts must be one positive integer per row"):
            loss_and_gradients(net, X, Y, np.array(counts))
        with pytest.raises(ValueError, match="counts must be one positive integer per row"):
            train(SupervisedFrame(X, Y), 0.5, TrainConfig(epochs=1, hidden=(3,)), 0,
                  np.array(counts))


def _forward(net, X):
    a = np.asarray(X, dtype=float)
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ W + b, 0.0)
    return None, None, a @ net.weights[-1] + net.biases[-1]


class TestTraining:
    def test_bitwise_deterministic(self, rng):
        frame = small_frame(rng)
        cfg = TrainConfig(epochs=40, hidden=(8,))
        a = train(frame, 0.5, cfg, seed=5)
        b = train(frame, 0.5, cfg, seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)
        assert a.loss_history == b.loss_history

    def test_seed_changes_fit(self, rng):
        frame = small_frame(rng)
        a = train(frame, 0.5, TrainConfig(epochs=20, hidden=(8,)), seed=1)
        b = train(frame, 0.5, TrainConfig(epochs=20, hidden=(8,)), seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_loss_history_runs_epochs_plus_one(self, rng):
        frame = small_frame(rng)
        net = train(frame, 0.5, TrainConfig(epochs=25, hidden=(4,)))
        assert len(net.loss_history) == 26
        assert net.loss_history[-1] < net.loss_history[0]

    def test_constant_targets_learned(self, rng):
        X = rng.normal(size=(80, 2))
        Y = np.full((80, 1), 7.0)
        frame = SupervisedFrame(X, Y)
        net = mse_train(frame, TrainConfig(epochs=1000, learning_rate=0.02, hidden=(8,)))
        preds = net.predict_batch(X)
        assert np.max(np.abs(preds - 7.0)) < 0.2

    def test_linear_signal_mse(self, rng):
        # y = 2x is easy; the fit should soak up almost all target variance
        x = rng.uniform(-1.0, 1.0, size=(200, 1))
        y = 2.0 * x
        frame = SupervisedFrame(x, y)
        net = mse_train(frame, TrainConfig(epochs=1000, hidden=(16,)))
        resid = net.predict_batch(x) - y
        assert np.mean(resid**2) < 1e-2 * np.var(y)

    def test_uniform_quantile_level(self, rng):
        # tau=0.9 on pure U(0,1) noise: predictions should settle near 0.9
        X = rng.normal(size=(400, 2))
        Y = rng.uniform(0.0, 1.0, size=(400, 1))
        frame = SupervisedFrame(X, Y)
        net = train(frame, 0.9, TrainConfig(epochs=1000, hidden=(8,)))
        assert 0.85 < float(np.mean(net.predict_batch(X))) < 0.95

    def test_tau_out_of_range(self, rng):
        frame = small_frame(rng)
        with pytest.raises(InvalidTau):
            train(frame, 0.0, TrainConfig(epochs=1))

    @pytest.mark.parametrize("tau", [0.0, 1.0, float("nan")])
    def test_tau_out_of_range_takes_no_step(self, rng, monkeypatch, tau):
        steps = []
        real_step = quantile_net._Kernel.adam_step

        def spy(kernel, step, lr):
            steps.append(step)
            return real_step(kernel, step, lr)

        monkeypatch.setattr(quantile_net._Kernel, "adam_step", spy)
        with pytest.raises(InvalidTau, match=r"tau must be in \(0, 1\), got "):
            train(small_frame(rng), tau, TrainConfig(epochs=3))
        assert steps == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_absurd_learning_rate_diverges(self, rng):
        # one Adam step of size ~1e200 overflows the next forward pass
        x = rng.normal(size=(30, 1))
        frame = SupervisedFrame(x, x.copy())
        with pytest.raises(NonFiniteLoss):
            mse_train(frame, TrainConfig(epochs=50, learning_rate=1e200, hidden=(8,)))

    @pytest.mark.parametrize("tau", [None, 0.5])
    def test_overflowing_standardization_takes_no_step(self, rng, monkeypatch, tau):
        # the squares of values near 1e160 overflow the bag's std; at 1e150 they do not
        steps = []
        monkeypatch.setattr(quantile_net._Kernel, "adam_step", lambda *args: steps.append(args))
        frame = small_frame(rng)
        wide = SupervisedFrame(frame.covariates * 1e160, frame.targets * 1e160)
        with pytest.raises(NonFiniteLoss, match="standardization .* std inf"):
            train(wide, tau, TrainConfig(epochs=3))
        assert steps == []
        train(SupervisedFrame(frame.covariates * 1e150, frame.targets * 1e150), tau,
              TrainConfig(epochs=3))

    @pytest.mark.parametrize("big, tau, overflows", [
        (1e308, None, True), (1e308, 0.5, True), (1e200, None, True), (1e200, 0.5, False),
    ])
    def test_outlying_target_is_a_typed_error_not_a_warning(self, rng, monkeypatch,
                                                           big, tau, overflows):
        # a target far outside the covariates' spread: at 1e308 its standardized
        # value overflows, at 1e200 only its square in the squared-error loss does,
        # and the pinball net trains on it (aenbmimocqr exits 0 on such a series)
        steps = []
        real_step = quantile_net._Kernel.adam_step

        def spy(kernel, step, lr):
            steps.append(step)
            return real_step(kernel, step, lr)

        monkeypatch.setattr(quantile_net._Kernel, "adam_step", spy)
        targets = rng.uniform(size=(60, 2))
        targets[-1, -1] = big
        frame = SupervisedFrame(rng.uniform(size=(60, 3)), targets)
        if overflows:
            with pytest.raises(NonFiniteLoss):
                train(frame, tau, TrainConfig(epochs=3, hidden=(4,)))
            assert steps == []
        else:
            net = train(frame, tau, TrainConfig(epochs=3, hidden=(4,)))
            assert steps == [1, 2, 3]
            assert np.all(np.isfinite(net.loss_history))

    def test_mse_net_has_no_tau(self, rng):
        net = mse_train(small_frame(rng), TrainConfig(epochs=5, hidden=(4,)))
        assert net.tau is None

    def test_output_width_matches_horizon(self):
        series = TimeSeries(np.linspace(0.0, 1.0, 60))
        frame = frame_mimo(series, n_lags=5, horizon=3)
        net = train(frame, 0.5, TrainConfig(epochs=5, hidden=(4,)))
        assert net.layer_sizes[-1] == 3
        assert net.predict(series.values[:5]).shape == (3,)

    def test_crossing_rare_on_smooth_series(self, rng):
        # lower and upper quantile fits should rarely invert on the data
        # they were trained on
        t = np.arange(300, dtype=float)
        values = np.sin(t / 8.0) + 0.1 * rng.normal(size=t.size)
        frame = frame_recursive(TimeSeries(values), n_lags=10)
        cfg = TrainConfig(epochs=400, hidden=(16,))
        lo = train(frame, 0.05, cfg)
        hi = train(frame, 0.95, cfg)
        lo_pred = lo.predict_batch(frame.covariates)[:, 0]
        hi_pred = hi.predict_batch(frame.covariates)[:, 0]
        crossing = float(np.mean(lo_pred > hi_pred))
        assert crossing < 0.05


def _kernel_frames():
    t = np.arange(160, dtype=float)
    noise = np.random.default_rng(606).normal(size=t.size)
    series = TimeSeries(20.0 + 3.0 * np.sin(t / 6.0) + noise)
    return {"mimo": frame_mimo(series, n_lags=12, horizon=6),
            "recursive": frame_recursive(series, n_lags=12)}


class TestKernelMatchesReference:
    """``train``/``mse_train`` against the slow reference in ``oracles.ref_fit``:
    every parameter and every loss must agree bit for bit."""

    FRAMES = _kernel_frames()

    @pytest.mark.parametrize("kind", ["mimo", "recursive"])
    @pytest.mark.parametrize("hidden", [(4,), (16, 8, 4), (64, 64)])
    @pytest.mark.parametrize("tau", [0.05, 0.5, 0.95, None])
    def test_bitwise_equal(self, kind, hidden, tau):
        frame = self.FRAMES[kind]
        cfg, seed = TrainConfig(epochs=300, learning_rate=3e-3, hidden=hidden), 11
        net = mse_train(frame, cfg, seed) if tau is None else train(frame, tau, cfg, seed)
        weights, biases, losses = oracles.ref_fit(
            frame.covariates, frame.targets, tau, cfg.epochs, cfg.learning_rate, seed, hidden
        )
        assert len(net.loss_history) == cfg.epochs + 1
        assert net.loss_history == losses
        for got, want in zip(net.weights + net.biases, weights + biases):
            assert np.array_equal(got, want)
            assert got.flags.owndata and got.flags.c_contiguous

    @pytest.mark.parametrize("kind", ["mimo", "recursive"])
    @pytest.mark.parametrize("hidden", [(4,), (64, 64)])
    @pytest.mark.parametrize("tau", [0.05, None])
    def test_bitwise_equal_with_counts(self, kind, hidden, tau):
        # a bootstrap bag's distinct rows, weighted by their counts
        frame = self.FRAMES[kind]
        _, rows, counts = _bag(frame.n_rows, 3)
        sub = SupervisedFrame(frame.covariates[rows], frame.targets[rows])
        cfg, seed = TrainConfig(epochs=300, learning_rate=3e-3, hidden=hidden), 11
        net = (mse_train(sub, cfg, seed, counts) if tau is None
               else train(sub, tau, cfg, seed, counts))
        weights, biases, losses = oracles.ref_fit(
            sub.covariates, sub.targets, tau, cfg.epochs, cfg.learning_rate, seed, hidden, counts
        )
        assert net.loss_history == losses
        for got, want in zip(net.weights + net.biases, weights + biases):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("tau", [0.05, None])
    def test_unit_counts_are_the_unweighted_fit(self, tau):
        # explicit unit counts train the net the call without counts trains,
        # and both are the unweighted reference (plain means) bit for bit
        frame = self.FRAMES["mimo"]
        cfg, seed = TrainConfig(epochs=100, learning_rate=3e-3, hidden=(16, 8)), 5

        def fit(*counts):
            return (mse_train(frame, cfg, seed, *counts) if tau is None
                    else train(frame, tau, cfg, seed, *counts))

        plain, unit = fit(), fit(np.ones(frame.n_rows, dtype=int))
        weights, biases, losses = oracles.ref_fit(
            frame.covariates, frame.targets, tau, cfg.epochs, cfg.learning_rate, seed, cfg.hidden
        )
        assert unit.loss_history == plain.loss_history == losses
        for got, same, want in zip(unit.weights + unit.biases, plain.weights + plain.biases,
                                   weights + biases):
            assert np.array_equal(_bits(got), _bits(same))
            assert np.array_equal(_bits(got), _bits(want))

