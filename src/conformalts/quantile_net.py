"""A small fully connected quantile network on plain numpy.

Architecture: input -> hidden ReLU layers -> linear output, one output unit
per forecast step. Trained full batch with Adam on either the pinball loss
at a fixed level tau (quantile regression) or the mean squared error (point
regression). Backpropagation is written out by hand so the analytic
gradients can be checked against finite differences.

Everything is float64 and seeded: two trainings with the same data, config
and seed produce bitwise identical parameters.

Training runs on one private kernel (``_Kernel``) built once per fit for
the layer sizes and row counts. It owns flat parameter, gradient and Adam
moment vectors with per-layer views, and preallocated output, delta and
mask arrays, so an epoch allocates nothing: its forward pass is
``forward`` writing into the preallocated outputs, every backward product
is a ``np.matmul(..., out=)``, masks apply in place, and one elementwise
Adam update covers every parameter. ``loss_and_gradients`` runs the same
kernel once, so the gradient check tests the code training runs.

Every fit is count-weighted: row i of the frame stands for ``counts[i]``
copies of itself (default one), so a bootstrap bag trains on its distinct
rows, with the loss sum(counts * terms) / (sum(counts) * H) and the
standardization of the bag as drawn. That is the loss over the gathered
bag, duplicates included, up to rounding (the bootstrap's resampling
weights; Efron & Tibshirani 1993), at the cost of the distinct rows only.

Exactness rule: the kernel keeps every element's sequence of float64
operations, so its results equal a straightforward per-array
implementation bit for bit (``tests/oracles.py::ref_fit``), and unit
counts reproduce the unweighted kernel bit for bit: a product by 1.0 and
a division by n * H, the same number as the element count. Rewrites that
change bits, and so change every downstream interval, include training
several members in one multi-member gemm, folding the bias into the gemm
as an extra input column, float32 arithmetic, a different reduction shape
(for example summing bias gradients in another order or layout), and
reassociating the Adam step (``lr * m / c1`` instead of ``lr * (m / c1)``).

One pass, ``forward``, runs (weights, biases) layers along the last axis of
its input: a net's own (in, out) layers in ``predict_batch`` and in the
training kernel, or the (B, in, out) stack that ``stack_layers`` builds
from B nets of one shape. Every net stores C-ordered float64 arrays, so
every ensemble stacks.
Inference exactness rule: a stacked pass runs, per net, the product the
net's own method runs, one (1, in) @ (in, out) per window for ``predict``
and (n, in) @ (in, out) for ``predict_batch``, so it equals the per-net
loop bit for bit for every ensemble; a multi-row gemm in place of the
single-window products does not, because BLAS sums its rows in another
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, InvalidTau, NonFiniteLoss
from .framing import SupervisedFrame

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def pinball_loss(y, y_hat, tau: float):
    """Pinball (quantile) loss max(tau * u, (tau - 1) * u) with u = y - y_hat.

    Scalars give a scalar; arrays give the mean over all components.
    """
    if not 0.0 < tau < 1.0:
        raise InvalidTau(f"tau must be in (0, 1), got {tau}")
    u = np.asarray(y, dtype=float) - np.asarray(y_hat, dtype=float)
    loss = np.maximum(tau * u, (tau - 1.0) * u)
    return float(np.mean(loss))


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; ``hidden`` fixes the ReLU widths. A bad one is a ConfigError."""

    epochs: int = 1000
    learning_rate: float = 1e-3
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}", "epochs")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}", "learning_rate")
        if len(self.hidden) == 0 or any(w < 1 for w in self.hidden):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden}", "hidden")


class QuantileNet:
    """Weights and biases of the fitted network.

    ``tau`` is the quantile level the net was trained for, or None for a net
    trained on squared error.
    """

    def __init__(self, weights, biases, tau: float | None):
        if tau is not None and not 0.0 < tau < 1.0:
            raise InvalidTau(f"tau must be in (0, 1), got {tau}")
        self.weights = [np.ascontiguousarray(w, dtype=float) for w in weights]
        self.biases = [np.ascontiguousarray(b, dtype=float) for b in biases]
        self.tau = tau
        self.loss_history: list[float] = []

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.layer_sizes[0]:
            raise DimensionMismatch(
                f"expected (n, {self.layer_sizes[0]}) covariates, got {X.shape}"
            )
        return forward(list(zip(self.weights, self.biases)), X)

    def predict(self, x) -> np.ndarray:
        # predict_batch checks the window's width
        return self.predict_batch(np.asarray(x, dtype=float).reshape(1, -1))[0]


def forward(layers, a: np.ndarray, outs=None) -> np.ndarray:
    """``layers``, a sequence of (weights, biases), applied to ``a`` along its
    last axis: ReLU after every layer but the last. Layer k's output goes
    into ``outs[k]`` if given (else a new array); ``a`` is never written."""
    for k, (W, b) in enumerate(layers):
        a = np.matmul(a, W, out=None if outs is None else outs[k])
        a += b
        if k < len(layers) - 1:
            np.maximum(a, 0.0, out=a)
    return a


def stack_layers(nets) -> tuple:
    """Per layer, the nets' weights as (B, in, out) and biases as (B, 1, out),
    for one ``forward`` pass over every net. The nets must be QuantileNets
    of one ``layer_sizes``."""
    if not (all(isinstance(net, QuantileNet) for net in nets)
            and len({net.layer_sizes for net in nets}) == 1):
        raise ValueError("ensemble members must be QuantileNets of one shape")
    return tuple(
        (np.stack([net.weights[k] for net in nets]),
         np.stack([net.biases[k] for net in nets])[:, None, :])
        for k in range(len(nets[0].weights))
    )


def init_net(
    n_inputs: int, n_out: int, hidden: tuple[int, ...], tau: float | None, seed: int
) -> QuantileNet:
    """Fresh network with fan-in scaled uniform weights and zero biases."""
    rng = np.random.default_rng(seed)
    sizes = (n_inputs, *hidden, n_out)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return QuantileNet(weights, biases, tau)


class _Kernel:
    """Full-batch training buffers for one layer shape on rows weighted by
    ``counts``, one positive count per row.

    Parameters and gradients live in flat vectors (every weight matrix, then
    every bias) exposed as per-layer C-ordered views, so the Adam update is
    one pass over each vector. Each layer owns a preallocated output, delta
    and mask array; ``loss`` and ``backward`` write into them and allocate
    nothing per call. ``tau`` None means squared error, else pinball at tau.
    """

    def __init__(self, layer_sizes: tuple[int, ...], counts: np.ndarray):
        n_rows = len(counts)
        # each row's count as a column, and the loss's divisor sum(counts) * H
        self._counts = np.asarray(counts, dtype=float)[:, None]
        self._total = float(np.sum(counts)) * layer_sizes[-1]
        shapes = list(zip(layer_sizes[:-1], layer_sizes[1:]))
        size = sum(i * o + o for i, o in shapes)
        self.params = np.zeros(size)
        self.grads = np.zeros(size)
        self.weights, self.biases = _layer_views(self.params, shapes)
        self._layers = list(zip(self.weights, self.biases))
        self.grad_w, self.grad_b = _layer_views(self.grads, shapes)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._step_num = np.empty(size)
        self._step_den = np.empty(size)
        # _outs[k] is layer k's output, written by forward (ReLU on hidden layers)
        self._outs = [np.empty((n_rows, o)) for _, o in shapes]
        self._deltas = [np.empty((n_rows, o)) for _, o in shapes]
        self._masks = [np.empty((n_rows, o), dtype=bool) for _, o in shapes]
        self._resid = np.empty((n_rows, layer_sizes[-1]))
        self._terms = np.empty((n_rows, layer_sizes[-1]))

    def load(self, weights, biases) -> None:
        for dst, src in zip(self.weights + self.biases, [*weights, *biases]):
            dst[...] = src

    def loss(self, X: np.ndarray, Y: np.ndarray, tau: float | None) -> float:
        """Forward pass over X and the count-weighted mean loss against Y."""
        u, terms = self._resid, self._terms
        np.subtract(Y, forward(self._layers, X, self._outs), out=u)
        if tau is None:
            np.multiply(u, u, out=terms)
        else:
            other = self._deltas[-1]  # scratch until backward overwrites it
            np.multiply(u, tau, out=terms)
            np.multiply(u, tau - 1.0, out=other)
            np.maximum(terms, other, out=terms)
        terms *= self._counts
        return float(np.sum(terms)) / self._total

    def backward(self, X: np.ndarray, Y: np.ndarray, tau: float | None) -> None:
        """Gradients of the loss of the last ``loss`` call, into ``grads``.

        At a zero pinball residual the subgradient takes the tau branch.
        """
        d = self._deltas[-1]
        if tau is None:
            np.subtract(self._outs[-1], Y, out=d)
            d *= 2.0
        else:
            below = self._masks[-1]
            np.less(self._resid, 0.0, out=below)
            np.subtract(below, tau, out=d)
        d *= self._counts
        d /= self._total
        for k in range(len(self.weights) - 1, -1, -1):
            a = X if k == 0 else self._outs[k - 1]
            np.matmul(a.T, d, out=self.grad_w[k])
            np.sum(d, axis=0, out=self.grad_b[k])
            if k > 0:
                prev, active = self._deltas[k - 1], self._masks[k - 1]
                np.matmul(d, self.weights[k].T, out=prev)
                # a = max(z, 0) is > 0 exactly where the pre-activation z is
                np.greater(a, 0.0, out=active)
                prev *= active
                d = prev

    def adam_step(self, step: int, lr: float) -> None:
        """One Adam update of every parameter from ``grads`` (step counts from 1)."""
        c1 = 1.0 - ADAM_BETA1**step
        c2 = 1.0 - ADAM_BETA2**step
        g, m, v = self.grads, self._m, self._v
        num, den = self._step_num, self._step_den
        np.subtract(g, m, out=num)
        num *= 1.0 - ADAM_BETA1
        m += num
        np.multiply(g, g, out=num)
        num -= v
        num *= 1.0 - ADAM_BETA2
        v += num
        np.divide(m, c1, out=num)
        num *= lr
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        num /= den
        self.params -= num


def _layer_views(flat: np.ndarray, shapes):
    """Per-layer (weights, biases) views of a flat vector: all weight
    matrices first, then all bias vectors."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in shapes:
        weights.append(flat[start:start + fan_in * fan_out].reshape(fan_in, fan_out))
        start += fan_in * fan_out
    for _, fan_out in shapes:
        biases.append(flat[start:start + fan_out])
        start += fan_out
    return weights, biases


def _row_counts(counts, n_rows: int) -> np.ndarray:
    """``counts`` as one positive integer per row, or ones if None; else a
    ValueError."""
    if counts is None:
        return np.ones(n_rows, dtype=np.int64)
    counts = np.asarray(counts)
    if counts.shape != (n_rows,) or counts.dtype.kind not in "iu" or np.any(counts < 1):
        raise ValueError(f"counts must be one positive integer per row ({n_rows}), "
                         f"got shape {counts.shape} of {counts.dtype}")
    return counts


def loss_and_gradients(net: QuantileNet, X: np.ndarray, Y: np.ndarray, counts=None):
    """Mean loss over all rows and output components, each row weighted by
    its entry in ``counts`` (default one), with gradients for every weight
    matrix and bias vector.

    The loss is the net's own: pinball at ``net.tau`` (at a zero residual
    the subgradient takes the tau branch), or squared error when tau is
    None. Runs the training kernel once on copies of the net's parameters
    and returns copies of its gradients.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    kernel = _Kernel(net.layer_sizes, _row_counts(counts, X.shape[0]))
    kernel.load(net.weights, net.biases)
    loss = kernel.loss(X, Y, net.tau)
    kernel.backward(X, Y, net.tau)
    return loss, [g.copy() for g in kernel.grad_w], [g.copy() for g in kernel.grad_b]


def _fit(frame: SupervisedFrame, tau: float | None, config: TrainConfig,
         seed: int, counts) -> QuantileNet:
    # Optimize in standardized units (series values can sit far from the
    # origin, which starves full-batch Adam at a fixed step size), then fold
    # the affine maps into the first and last layers so the returned net
    # works in original units. The units are the bag's: every row as many
    # times as it counts.
    counts = _row_counts(counts, frame.n_rows)
    bag = np.repeat(frame.covariates, counts, axis=0)
    loc = float(np.mean(bag))
    scale = float(np.std(bag))
    if not scale > 0.0:
        scale = 1.0
    X = (frame.covariates - loc) / scale
    Y = (frame.targets - loc) / scale
    init = init_net(frame.n_lags, frame.horizon, tuple(config.hidden), tau, seed)
    kernel = _Kernel(init.layer_sizes, counts)
    kernel.load(init.weights, init.biases)
    history = []  # the loss before every Adam step and after the last
    for step in range(1, config.epochs + 2):
        loss = kernel.loss(X, Y, tau)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss became {loss} after {step - 1} of {config.epochs} epochs")
        history.append(loss)
        if step <= config.epochs:
            kernel.backward(X, Y, tau)
            kernel.adam_step(step, config.learning_rate)
    w, b = kernel.weights, kernel.biases
    net = QuantileNet(
        [w[0] / scale, *(wk.copy() for wk in w[1:-1]), w[-1] * scale],
        [b[0] - (loc / scale) * w[0].sum(axis=0), *(bk.copy() for bk in b[1:-1]),
         b[-1] * scale + loc],
        tau,
    )
    net.loss_history = history
    return net


def train(frame: SupervisedFrame, tau: float, config: TrainConfig,
          seed: int = 0, counts=None) -> QuantileNet:
    """Fit a quantile network at level tau on the frame (full-batch Adam),
    from the initial weights of ``seed``, each row weighted by its entry in
    ``counts`` (default one; see the module docstring). A tau outside
    (0, 1) is the initial net's InvalidTau, raised before the first epoch."""
    return _fit(frame, tau, config, seed, counts)


def mse_train(frame: SupervisedFrame, config: TrainConfig, seed: int = 0,
              counts=None) -> QuantileNet:
    """Fit a point-forecast network on squared error (tau is None), from the
    initial weights of ``seed``, each row weighted by its entry in
    ``counts`` (default one)."""
    return _fit(frame, None, config, seed, counts)

