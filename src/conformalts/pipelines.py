"""End-to-end interval forecasting pipelines.

Four methods share one harness contract: the training prefix is visible up
front, while test values sit behind a FeedbackStream that releases the truth
for a block of ``horizon`` steps only after the intervals for that block
have been submitted. All state updates (score windows, working miscoverage
levels, conformal corrections) therefore happen strictly between blocks.

Every runner checks its inputs, fits (or takes) its models, each net by
``_train_net`` on rows of the runner's frame, calibrates on held-out scores
and hands the test segment to ``_walk``, the one block loop.
A runner supplies two callbacks: ``emit(history)`` returns the next block's
(lower band, upper band, correction) from the values seen so far, and
``observe(lower, upper, y, history)`` updates the runner's state once the
block's values ``y`` are revealed. ``_walk`` owns the rest: the history, the
block's CQR bounds (one ``cqr_interval`` call) and their check,
``submit``/``reveal``, and the run's ``(n_blocks, horizon)`` bound and value
arrays. Every score is the package's CQR score (``score_cqr``).

The recursive runners share one walk, ``_recursive_walk``: enbpi is enbcqr
with the path as a zero-width band. That is exact: the CQR score of the
band [p, p], max(p - y, y - p), is the absolute residual |p - y| bit for
bit, because IEEE subtraction is sign-symmetric.

The sliding runners keep their scores in one fixed-width
``SlidingScoreWindow`` (one row, or one per step for aenbmimocqr): a block
pushes one batch and the corrections are one row-wise quantile call.

Every model is a QuantileNet, injected ones included. An ensemble's
members share one shape: it stacks their layers once, when it is built
(``quantile_net.stack_layers``), and answers single windows and batches in
the walk with one ``quantile_net.forward`` pass over the stack, bit for bit
equal to the per-member loop under the inference exactness rule of the
``quantile_net`` docstring. Out-of-bag scoring calls each member's
``predict_batch``: a stacked pass over the training frame would hold B
frames of activations.

Methods
-------
run_aenbmimocqr  bagged multi-output quantile pair, per-step score windows,
                 online miscoverage correction (the adaptive method)
run_mimocqr      single multi-output quantile pair, split calibration,
                 corrections frozen before the test segment
run_enbpi        bagged point forecaster rolled forward recursively,
                 symmetric absolute-residual intervals: enbcqr's walk with
                 the path as its band, sliding scores
run_enbcqr       three bagged one-step quantile models (lower, median,
                 upper), recursion through the median, sliding scores
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adaptive import (
    AciState,
    SlidingScoreWindow,
    aci_update,
    init_gamma,
    sample_without_replacement,
)
from .conformal import conformal_quantile, cqr_interval, score_cqr
from .errors import AllRowsInBag, DimensionMismatch, SeriesTooShort
from .framing import (
    SupervisedFrame,
    TimeSeries,
    check_bounds,
    covered,
    frame_mimo,
    frame_recursive,
    recursive_forecast,
)
from .quantile_net import TrainConfig, forward, mse_train, stack_layers, train
from .seeding import derive_seed, spawn_rng


class FeedbackStream:
    """Test-segment oracle that reveals ground truth one block at a time.

    ``submit`` registers the intervals for the next steps; ``reveal`` hands
    back realized values, but never past what has been submitted, so a
    pipeline cannot peek at a block's outcomes before committing to its
    intervals. Every call is appended to ``events`` for auditing.
    """

    def __init__(self, values):
        values = getattr(values, "values", values)
        self._values = np.asarray(values, dtype=float).reshape(-1)
        if self._values.size == 0:
            raise ValueError("test segment is empty")
        if not np.all(np.isfinite(self._values)):
            raise ValueError("test values must be finite")
        self._submitted = 0
        self._revealed = 0
        self.events: list[tuple[str, int, int]] = []

    def __len__(self) -> int:
        return self._values.size

    @property
    def n_submitted(self) -> int:
        return self._submitted

    @property
    def n_revealed(self) -> int:
        return self._revealed

    def submit(self, k: int) -> None:
        """Commit intervals for the next k steps."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._submitted + k > self._values.size:
            raise ValueError("submitted intervals overrun the test segment")
        self.events.append(("submit", self._submitted, k))
        self._submitted += k

    def reveal(self, k: int) -> np.ndarray:
        """Return the next k realized values; only allowed once intervals
        for those steps have been submitted."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._revealed + k > self._submitted:
            raise ValueError(
                "ground truth requested before intervals were submitted for it"
            )
        out = self._values[self._revealed: self._revealed + k].copy()
        self.events.append(("reveal", self._revealed, k))
        self._revealed += k
        return out


@dataclass
class BootstrapEnsemble:
    """Bagged forecasters plus the bootstrap row multiset each one saw.

    ``members`` are QuantileNets of one shape, each mapping a lag window
    (n_lags,) to a (horizon,) prediction. They are stacked once, here
    (``_layers``), and every mean prediction is one ``forward`` pass over
    the stack, bit for bit equal to the member loop (see the
    ``quantile_net`` docstring).
    """

    members: list
    index_sets: list[np.ndarray]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("an ensemble needs at least 2 members")
        if len(self.members) != len(self.index_sets):
            raise ValueError("one index set per member required")
        self.index_sets = [np.asarray(s, dtype=int) for s in self.index_sets]
        self._layers = stack_layers(self.members)

    @property
    def n_members(self) -> int:
        return len(self.members)

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Mean prediction of all members at one lag window."""
        return self.predict_mean_rows(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def predict_mean_rows(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction of all members at each row of X, (n_rows, n_out)."""
        preds = forward(self._layers, self._rows(X)[:, None, None, :])[:, :, 0]
        return np.add.reduce(preds, axis=1) / self.n_members

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        """Mean of the members' ``predict_batch`` over the rows of X."""
        return np.add.reduce(forward(self._layers, self._rows(X)), axis=0) / self.n_members

    def _rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        width = self._layers[0][0].shape[1]
        if X.ndim != 2 or X.shape[1] != width:
            raise DimensionMismatch(f"expected rows of {width} covariates, got shape {X.shape}")
        return X


def _train_net(frame: SupervisedFrame, rows, tau: float | None, seed: int,
               config: TrainConfig):
    """Train one net at ``seed`` on the frame's ``rows`` (an index array or a
    slice): a pinball net at level ``tau``, or a squared-error net if None."""
    sub = SupervisedFrame(frame.covariates[rows], frame.targets[rows])
    config = replace(config, seed=seed)
    return mse_train(sub, config) if tau is None else train(sub, tau, config)


def fit_ensemble(
    frame: SupervisedFrame,
    tau: float | None,
    n_models: int,
    seed: int,
    config: TrainConfig,
) -> BootstrapEnsemble:
    """Train ``n_models`` networks on with-replacement row resamples.

    ``tau`` selects the objective: a level in (0, 1) trains pinball nets,
    None trains squared-error nets. The bootstrap index sets depend only on
    ``seed``, so ensembles fitted with the same seed but different tau pair
    up member-for-member over identical resamples.
    """
    if n_models < 2:
        raise ValueError(f"n_models must be >= 2, got {n_models}")
    n = frame.n_rows
    rng = spawn_rng(seed, "bootstrap")
    index_sets = [rng.integers(0, n, size=n) for _ in range(n_models)]
    objective = "mse" if tau is None else str(tau)
    members = [_train_net(frame, idx, tau, derive_seed(seed, "member", b, objective), config)
               for b, idx in enumerate(index_sets)]
    return BootstrapEnsemble(members, index_sets)


def oob_predict(ensemble: BootstrapEnsemble, frame: SupervisedFrame):
    """Aggregate member predictions per row over the members whose bootstrap
    resample excluded that row.

    Returns (predictions, kept) where predictions is (n_rows, horizon) with
    NaN rows for covariates that appear in every bag, and kept is the
    boolean mask of rows that do have an out-of-bag prediction.
    """
    n = frame.n_rows
    in_bag = np.zeros((ensemble.n_members, n), dtype=bool)
    for b, idx in enumerate(ensemble.index_sets):
        if np.any(idx < 0) or np.any(idx >= n):
            raise ValueError("bootstrap index out of range for this frame")
        in_bag[b, idx] = True
    excluded = ~in_bag
    counts = excluded.sum(axis=0)
    kept = counts > 0
    if not np.any(kept):
        raise AllRowsInBag("every row appears in every bootstrap bag")
    preds = np.stack([m.predict_batch(frame.covariates) for m in ensemble.members])
    total = np.einsum("bn,bnh->nh", excluded.astype(float), preds)
    out = np.full((n, frame.horizon), np.nan)
    out[kept] = total[kept] / counts[kept, None]
    return out, kept


@dataclass
class RunResult:
    """Everything a backtest produced, one row per block.

    ``lower``, ``upper`` and ``y`` are read-only (n_blocks, horizon) arrays:
    row b holds the bounds block b emitted and the values revealed for them.
    ``origins[b]`` is the 1-based time index of block b's first step, so
    step h (1-based) targets time ``origins[b] + h - 1``. ``alpha_traces``
    (adaptive method only) holds the working miscoverage level per horizon
    step, recorded before the first block and after each one, shape
    (horizon, n_blocks + 1). ``window_size_traces`` records score-window
    sizes on the same schedule, one column per window; the widths are fixed,
    so each column is constant.
    """

    method: str
    origins: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    y: np.ndarray
    alpha_traces: np.ndarray | None = None
    window_size_traces: np.ndarray | None = None
    skipped_oob_rows: int = 0

    @property
    def n_blocks(self) -> int:
        return self.lower.shape[0]

    @property
    def horizon(self) -> int:
        return self.lower.shape[1]


def _check_run(stream: FeedbackStream, horizon: int, alpha: float) -> None:
    """Reject a bad level, horizon or stream before any model is trained."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if stream.n_submitted or stream.n_revealed:
        raise ValueError("stream has already been consumed")
    if len(stream) % horizon != 0:
        raise ValueError(
            f"test length {len(stream)} is not a multiple of horizon {horizon}"
        )


def _walk(train_series: TimeSeries, stream: FeedbackStream, horizon: int, emit, observe):
    """The block loop of every runner (see the module docstring); returns
    the read-only ``origins, lower, upper, y`` of a RunResult. ``emit`` may
    give one correction or one per step."""
    history = list(train_series.values)
    n_blocks = len(stream) // horizon
    lower, upper, y = (np.empty((n_blocks, horizon)) for _ in range(3))
    for b in range(n_blocks):
        lower[b], upper[b] = cqr_interval(*emit(history))
        check_bounds(lower[b], upper[b])
        stream.submit(horizon)
        y[b] = stream.reveal(horizon)
        history.extend(y[b])
        observe(lower[b], upper[b], y[b], history)
    origins = len(train_series) + 1 + horizon * np.arange(n_blocks)
    for a in (origins, lower, upper, y):
        a.flags.writeable = False
    return origins, lower, upper, y


def _ordered_bounds(lo, hi):
    # quantile models can cross; treat the pair as an unordered band
    return np.minimum(lo, hi), np.maximum(lo, hi)


def _trailing_bands(lo_ens, hi_ens, history, n_lags: int, count: int):
    """Ordered mean bands at the last ``count`` forecast origins of history,
    oldest first, each from one batched prediction per ensemble."""
    tail = np.asarray(history[len(history) - n_lags - count + 1:], dtype=float)
    X = np.lib.stride_tricks.sliding_window_view(tail, n_lags)
    return _ordered_bounds(lo_ens.predict_mean_batch(X), hi_ens.predict_mean_batch(X))


def _oob_band_scores(lo_ens, hi_ens, frame: SupervisedFrame):
    """CQR scores of the ordered out-of-bag band, (n_kept, horizon), over
    the rows that have one, and the count of rows that have none."""
    lo_oob, kept = oob_predict(lo_ens, frame)
    # an ensemble paired with itself (enbpi's zero-width band) is predicted once
    hi_oob = lo_oob if hi_ens is lo_ens else oob_predict(hi_ens, frame)[0]
    lo_cal, hi_cal = _ordered_bounds(lo_oob[kept], hi_oob[kept])
    return score_cqr(lo_cal, hi_cal, frame.targets[kept]), int(frame.n_rows - kept.sum())


def _require_shared_index_sets(*ensembles: BootstrapEnsemble) -> None:
    first = ensembles[0].index_sets
    for other in ensembles[1:]:
        if len(other.index_sets) != len(first) or not all(
            np.array_equal(a, b) for a, b in zip(first, other.index_sets)
        ):
            raise ValueError("paired ensembles must share bootstrap index sets")


def run_aenbmimocqr(
    train_series: TimeSeries,
    stream: FeedbackStream,
    *,
    n_lags: int,
    horizon: int,
    alpha: float,
    n_models: int = 10,
    window_size: int = 100,
    seed: int = 0,
    config: TrainConfig | None = None,
    ensembles: tuple[BootstrapEnsemble, BootstrapEnsemble] | None = None,
    gamma_override: float | None = None,
) -> RunResult:
    """Adaptive bagged multi-output conformalized quantile regression.

    Fits lower/upper multi-output quantile ensembles over shared bootstrap
    resamples, calibrates per-step corrections on out-of-bag conformity
    scores, then walks the test segment block by block: emit corrected
    intervals, observe the block, rescore, update each step's working
    miscoverage level, and recompute the corrections.

    Rescoring follows the ensemble-batch rule of EnbPI (Xu & Xie 2021,
    arXiv 2010.09107): a block of ``horizon`` revealed values slides
    ``horizon`` new scores into every step's window, evicting as many of
    the oldest. Each revealed value y_t is the h-step target of the
    forecast from the origin ending at t - h, whose inputs were all
    revealed before y_t, so step h scores the whole block. Every score is
    the CQR conformity score (``score_cqr``; Romano et al. 2019, arXiv
    1905.03222) against the raw ordered ensemble band, the same score the
    out-of-bag calibration uses. Scoring against the corrected
    bounds instead would shift each new score down by the correction in
    force and pull the corrections toward half their calibrated size.
    Ensemble bands are predicted once per forecast origin, in one batch
    per block, and reused for both emitting and scoring.

    ``ensembles`` injects pre-fitted (lower, upper) ensembles in place of
    training; ``gamma_override`` pins the adaptation rate (0 disables
    adaptation), both mainly for equivalence testing.
    """
    _check_run(stream, horizon, alpha)
    config = config or TrainConfig()
    frame = frame_mimo(train_series, n_lags, horizon)
    if ensembles is None:
        lo_ens = fit_ensemble(frame, alpha / 2.0, n_models, seed, config)
        hi_ens = fit_ensemble(frame, 1.0 - alpha / 2.0, n_models, seed, config)
    else:
        lo_ens, hi_ens = ensembles
    _require_shared_index_sets(lo_ens, hi_ens)

    scores, skipped = _oob_band_scores(lo_ens, hi_ens, frame)
    gamma = init_gamma(window_size, len(scores)) if gamma_override is None else gamma_override
    state = AciState.fresh(alpha, gamma, horizon)
    qhat = conformal_quantile(scores.T, state.alphas)
    windows = SlidingScoreWindow([
        sample_without_replacement(scores[:, h], window_size, derive_seed(seed, "window", h + 1))
        for h in range(horizon)
    ])

    # bands at the last `horizon` forecast origins; the newest one is the
    # origin of the block about to be emitted
    lo_band, hi_band = _trailing_bands(lo_ens, hi_ens, train_series.values, n_lags, horizon)
    steps = np.arange(horizon)
    # in the previous and new bands stacked, row horizon - 1 + j - h is the
    # origin whose step h + 1 forecast targets the block's j-th value
    score_rows = horizon - 1 + steps[None, :] - steps[:, None]
    alpha_rows = [state.alphas.copy()]

    def emit(history):
        return lo_band[-1], hi_band[-1], qhat

    def observe(lower, upper, y, history):
        nonlocal lo_band, hi_band, qhat
        new_lo, new_hi = _trailing_bands(lo_ens, hi_ens, history, n_lags, horizon)
        lo_t = np.vstack([lo_band, new_lo])[score_rows, steps[:, None]]
        hi_t = np.vstack([hi_band, new_hi])[score_rows, steps[:, None]]
        windows.push(score_cqr(lo_t, hi_t, y))  # (step, target)
        for h, hit in enumerate(covered(lower, upper, y), start=1):
            aci_update(state, h, bool(hit))
        qhat = conformal_quantile(windows.values(), state.alphas)
        lo_band, hi_band = new_lo, new_hi
        alpha_rows.append(state.alphas.copy())

    return RunResult(
        "aenbmimocqr",
        *_walk(train_series, stream, horizon, emit, observe),
        alpha_traces=np.asarray(alpha_rows).T,
        window_size_traces=np.full(
            (len(stream) // horizon + 1, horizon), windows.values().shape[1]),
        skipped_oob_rows=skipped,
    )


def run_mimocqr(
    train_series: TimeSeries,
    stream: FeedbackStream,
    *,
    n_lags: int,
    horizon: int,
    alpha: float,
    cal_fraction: float = 0.5,
    seed: int = 0,
    config: TrainConfig | None = None,
    models: tuple | None = None,
) -> RunResult:
    """Split conformalized multi-output quantile regression, no adaptation.

    The supervised rows are split in time order: the first part trains the
    lower/upper quantile nets, the last ``cal_fraction`` of rows calibrates
    one correction per forecast step. Corrections stay frozen across the
    whole test segment. ``models`` injects a (lower, upper) pair of
    QuantileNets in place of training.
    """
    _check_run(stream, horizon, alpha)
    if not 0.0 < cal_fraction <= 1.0:
        raise ValueError("cal_fraction must be in (0, 1]")
    config = config or TrainConfig()
    frame = frame_mimo(train_series, n_lags, horizon)
    n_cal = int(frame.n_rows * cal_fraction)
    if n_cal < 1:
        raise SeriesTooShort("calibration split is empty")
    n_fit = frame.n_rows - n_cal
    if models is None:
        if n_fit < 1:
            raise SeriesTooShort("training split is empty")
        f_lo, f_hi = (
            _train_net(frame, slice(n_fit), tau, derive_seed(seed, "mimocqr", side), config)
            for tau, side in ((alpha / 2.0, "lo"), (1.0 - alpha / 2.0, "hi")))
    else:
        f_lo, f_hi = models

    cal_X = frame.covariates[n_fit:]
    lo_cal, hi_cal = _ordered_bounds(f_lo.predict_batch(cal_X), f_hi.predict_batch(cal_X))
    scores = score_cqr(lo_cal, hi_cal, frame.targets[n_fit:])
    qhat = conformal_quantile(scores.T, alpha)

    def emit(history):
        x = np.asarray(history[-n_lags:], dtype=float)
        lo, hi = _ordered_bounds(f_lo.predict(x), f_hi.predict(x))
        return lo, hi, qhat

    return RunResult("mimocqr", *_walk(train_series, stream, horizon, emit,
                                       lambda lower, upper, y, history: None))


def run_enbpi(
    train_series: TimeSeries,
    stream: FeedbackStream,
    *,
    n_lags: int,
    horizon: int,
    alpha: float,
    n_models: int = 10,
    seed: int = 0,
    config: TrainConfig | None = None,
    ensemble: BootstrapEnsemble | None = None,
) -> RunResult:
    """Bagged point forecasts with symmetric absolute-residual intervals.

    One-step squared-error members are rolled forward recursively for each
    block; every step gets the same correction, the conformal quantile of a
    sliding window of absolute residuals that advances by ``horizon`` scores
    per block.

    It is ``run_enbcqr``'s walk with the path as a zero-width band, bit for
    bit: IEEE subtraction is sign-symmetric, so the band's CQR score
    max(p - y, y - p) is |p - y| exactly.
    """
    _check_run(stream, horizon, alpha)
    config = config or TrainConfig()
    frame = frame_recursive(train_series, n_lags)
    if ensemble is None:
        ensemble = fit_ensemble(frame, None, n_models, seed, config)
    return _recursive_walk("enbpi", train_series, stream, frame, horizon, alpha, ensemble)


def run_enbcqr(
    train_series: TimeSeries,
    stream: FeedbackStream,
    *,
    n_lags: int,
    horizon: int,
    alpha: float,
    n_models: int = 10,
    seed: int = 0,
    config: TrainConfig | None = None,
    ensembles: tuple[BootstrapEnsemble, BootstrapEnsemble, BootstrapEnsemble] | None = None,
) -> RunResult:
    """Bagged one-step quantile bands rolled forward through the median.

    Three ensembles (lower, median, upper) share bootstrap resamples. The
    median ensemble feeds the recursion that builds each block's covariates;
    the lower/upper ensembles evaluated on those covariates give the band,
    widened by the conformal quantile of a sliding window of band scores.
    """
    _check_run(stream, horizon, alpha)
    config = config or TrainConfig()
    frame = frame_recursive(train_series, n_lags)
    if ensembles is None:
        lo_ens = fit_ensemble(frame, alpha / 2.0, n_models, seed, config)
        med_ens = fit_ensemble(frame, 0.5, n_models, seed, config)
        hi_ens = fit_ensemble(frame, 1.0 - alpha / 2.0, n_models, seed, config)
    else:
        lo_ens, med_ens, hi_ens = ensembles
    _require_shared_index_sets(lo_ens, med_ens, hi_ens)
    return _recursive_walk("enbcqr", train_series, stream, frame, horizon, alpha,
                           med_ens, (lo_ens, hi_ens))


def _recursive_walk(method, train_series, stream, frame, horizon, alpha, med_ens, band=None):
    """The walk of the recursive runners.

    Each block's path is the median ensemble rolled forward ``horizon``
    steps. The band is the ``(lower, upper)`` ensembles' mean at the path's
    lag windows, or the path itself when ``band`` is None. One sliding
    window of CQR band scores, out-of-bag first and then ``horizon`` per
    block, sets the one correction of every step.
    """
    scores, skipped = _oob_band_scores(*(band or (med_ens, med_ens)), frame)
    window = SlidingScoreWindow(scores[:, 0])
    qhat = conformal_quantile(window.values()[0], alpha)
    n_lags = frame.n_lags
    lo_steps = hi_steps = None

    def emit(history):
        nonlocal lo_steps, hi_steps
        last = np.asarray(history[-n_lags:], dtype=float)
        path = recursive_forecast(lambda x: float(med_ens.predict_mean(x)[0]), last, horizon)
        lo_steps = hi_steps = path
        if band is not None:
            # the lag window of step h + 1: the last observations, then path[:h]
            windows = np.lib.stride_tricks.sliding_window_view(
                np.concatenate([last, path[:-1]]), n_lags)
            lo_steps, hi_steps = _ordered_bounds(
                *(ens.predict_mean_rows(windows)[:, 0] for ens in band))
        return lo_steps, hi_steps, qhat

    def observe(lower, upper, y, history):
        nonlocal qhat
        window.push(score_cqr(lo_steps, hi_steps, y))
        qhat = conformal_quantile(window.values()[0], alpha)

    return RunResult(
        method,
        *_walk(train_series, stream, horizon, emit, observe),
        window_size_traces=np.full((len(stream) // horizon + 1, 1), window.values().shape[1]),
        skipped_oob_rows=skipped,
    )
