"""End-to-end interval forecasting pipelines.

Four methods share one harness contract: the training prefix is visible up
front, while test values sit behind a FeedbackStream that releases the truth
for a block of ``horizon`` steps only after the intervals for that block
have been submitted. All state updates (score windows, working miscoverage
levels, conformal corrections) therefore happen strictly between blocks.

Every runner checks its run (``check_run``), fits (or takes) its models,
each net by ``_train_net`` on rows of the runner's frame (a bagged runner's in one
``fit_ensemble`` call over all its levels), scores its calibration rows and
hands the test segment to ``_walk``, the one block loop, as four parts:

- a band source, ``band(history)``: the next block's ordered band;
- the calibration scores, one row per correction (one per step, or one
  row that every step shares);
- a slide, or None to freeze the corrections: a ``SlidingScoreWindow`` and
  the rescoring of the emitted band against the revealed block;
- a level: the target, or ACI's ``aci_update`` at rate ``gamma``.

The walk owns the rest: the history, the levels, the corrections (one
row-wise ``conformal_quantile`` call over every calibration score, then one
over the window per block), the CQR bounds (``cqr_interval``) and their
check, ``submit``/``reveal`` and the push. Every score is the package's
CQR score (``score_cqr``). The four methods are four settings:

runner       band                   calibration  slide                level
aenbmimocqr  MIMO ensemble means    out-of-bag   per step, T sampled  ACI
mimocqr      MIMO net pair          split        frozen               target
enbcqr       bands along the path   out-of-bag   one row, all scores  target
enbpi        the path, zero width   out-of-bag   one row, all scores  target

enbpi is enbcqr with the path as a zero-width band (``_recursive_walk``).
That is exact: the CQR score of the band [p, p], max(p - y, y - p), is the
absolute residual |p - y| bit for bit, because IEEE subtraction is
sign-symmetric.

Every model is a QuantileNet, injected ones included. An ensemble's
members share one shape: it stacks their layers once, when it is built
(``quantile_net.stack_layers``), and answers single windows and batches in
the walk with one ``quantile_net.forward`` pass over the stack, bit for bit
equal to the per-member loop under the inference exactness rule of the
``quantile_net`` docstring. Out-of-bag scoring calls each member's
``predict_batch``: a stacked pass over the training frame would hold B
frames of activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .adaptive import (
    SlidingScoreWindow,
    aci_update,
    init_gamma,
    sample_without_replacement,
)
from .conformal import conformal_quantile, cqr_interval, score_cqr
from .errors import AllRowsInBag, ConfigError, DimensionMismatch, SeriesTooShort
from .framing import (
    SupervisedFrame,
    TimeSeries,
    band_levels,
    check_bounds,
    covered,
    frame_mimo,
    frame_recursive,
    recursive_forecast,
)
from .quantile_net import TrainConfig, forward, stack_layers, train
# traced by perfbench/benchtrace.py, which wraps pipelines.mse_train
from .quantile_net import mse_train  # noqa: F401
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
    ``quantile_net`` docstring). There is one method per inference rule,
    and both take rows: ``predict_mean`` runs one single-window product
    per (member, row), ``predict_mean_batch`` one gemm per member.
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

    def predict_mean(self, X: np.ndarray) -> np.ndarray:
        """Mean of the members' ``predict`` at each row of X, (n_rows, n_out)."""
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
    """Train one net at ``seed`` on the frame's ``rows``, an index array: a
    pinball net at level ``tau``, or a squared-error net if None. It trains
    on the distinct rows, each weighted by how often ``rows`` holds it."""
    rows, counts = np.unique(rows, return_counts=True)
    sub = SupervisedFrame(frame.covariates[rows], frame.targets[rows])
    return train(sub, tau, config, seed, counts)


def _check_bags(n_models: int, n_rows: int | None = None) -> None:
    """A ConfigError unless ``n_models`` >= 2, and SeriesTooShort unless a frame
    of ``n_rows`` has two: one row is in every bag, so it has no out-of-bag score."""
    if n_models < 2:
        raise ConfigError(f"n_models must be >= 2, got {n_models}", "n_models")
    if n_rows is not None and n_rows < 2:
        raise SeriesTooShort(
            f"bagging needs at least 2 frame rows, the training frame has {n_rows}")


def fit_ensemble(
    frame: SupervisedFrame,
    taus: tuple[float | None, ...],
    n_models: int,
    seed: int,
    config: TrainConfig,
) -> list[BootstrapEnsemble]:
    """Train ``n_models`` networks per level in ``taus`` on one draw of
    with-replacement row resamples; one ensemble per level, in order.

    A level in (0, 1) trains pinball nets, None squared-error nets. Every
    level's member b trains on bag b, its distinct rows weighted by their
    counts, at seed ``derive_seed(seed, "member", b, "mse" or str(tau))``,
    so the ensembles pair up member for member.
    The bags depend only on ``seed`` and the frame's row count.
    """
    _check_bags(n_models, frame.n_rows)
    n = frame.n_rows
    rng = spawn_rng(seed, "bootstrap")
    index_sets = [rng.integers(0, n, size=n) for _ in range(n_models)]
    ensembles = []
    for tau in taus:
        objective = "mse" if tau is None else str(tau)
        members = [_train_net(frame, idx, tau, derive_seed(seed, "member", b, objective), config)
                   for b, idx in enumerate(index_sets)]
        ensembles.append(BootstrapEnsemble(members, index_sets))
    return ensembles


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


# method -> (multi-output: a frame row spans p + H values, else p + 1; the
# settings that run_<method> takes as keywords, ExperimentConfig fields too)
METHODS = {
    "aenbmimocqr": (True, ("n_models", "window_size")),
    "mimocqr": (True, ("cal_fraction",)),
    "enbpi": (False, ("n_models",)),
    "enbcqr": (False, ("n_models",)),
}


@dataclass(frozen=True)
class RunDefaults:
    """The runners' keyword defaults (B, T, mimocqr's calibration share),
    ``cli.ExperimentConfig``'s too."""

    n_models: int = 10
    window_size: int = 100
    cal_fraction: float = 0.5


@dataclass
class RunResult:
    """Everything a backtest produced, one row per block.

    ``lower``, ``upper`` and ``y`` are read-only (n_blocks, horizon) arrays:
    row b holds the bounds block b emitted and the values revealed for them.
    ``origins[b]`` is the 1-based time index of block b's first step, so
    step h (1-based) targets time ``origins[b] + h - 1``. ``alpha_traces``
    (adaptive method only) holds the working miscoverage level per horizon
    step, recorded before the first block and after each one, shape
    (horizon, n_blocks + 1).
    """

    origins: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    y: np.ndarray
    alpha_traces: np.ndarray | None = None
    skipped_oob_rows: int = 0

    @property
    def n_blocks(self) -> int:
        return self.lower.shape[0]

    @property
    def horizon(self) -> int:
        return self.lower.shape[1]


def check_run(method: str, n_test: int, n_train: int | None = None, *, n_lags: int,
              horizon: int, alpha: float, trains: bool = True, **settings):
    """Check a run of ``method`` on ``n_test`` test and, if given, ``n_train``
    training values before any net trains; returns ``band_levels(alpha)``.
    A bad setting (any given ``METHODS`` one) is a ConfigError; only injected
    nets (``trains`` False) calibrate on every row. Too few frame rows are SeriesTooShort."""
    mimo, names = METHODS[method]
    for name, value in (("n_lags", n_lags), ("horizon", horizon),
                        ("window_size", settings.get("window_size", 1))):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}", name)
    levels = band_levels(alpha)
    if n_test < horizon or n_test % horizon:
        raise ConfigError(f"n_test must be a positive multiple of horizon {horizon}, "
                          f"got {n_test}", "n_test")
    cal_fraction = settings.get("cal_fraction", RunDefaults.cal_fraction)
    if not (0.0 < cal_fraction < 1.0 or cal_fraction == 1.0 and not trains):
        raise ConfigError(f"cal_fraction must be in (0, 1), or 1 with injected nets, "
                          f"got {cal_fraction}", "cal_fraction")
    n_rows = None if n_train is None else max(n_train - n_lags - (horizon if mimo else 1) + 1, 0)
    _check_bags(settings.get("n_models", 2), n_rows if trains and "n_models" in names else None)
    if n_rows is not None and "cal_fraction" in names and int(n_rows * cal_fraction) < 1:
        raise SeriesTooShort(f"calibration split, {cal_fraction} of {n_rows} frame rows, is empty")
    return levels


def _walk(train_series: TimeSeries, stream: FeedbackStream, horizon: int, alpha: float,
          band, scores, slide=None, gamma=None):
    """The block loop of every runner over its parts (see the module
    docstring); returns a RunResult's read-only ``origins, lower, upper,
    y`` and its ``alpha_traces``.

    The (rows, n) calibration ``scores`` give the first corrections. With a
    ``slide`` ``(window, rescore)``, each block pushes ``rescore(lo, hi, y,
    history)``, the scores of the emitted band against the revealed block,
    and the corrections come from the window; a ``gamma`` first moves the
    levels by one ``aci_update``, and their (rows, n_blocks + 1) trace is
    returned, else None.
    """
    if stream.n_submitted:
        raise ValueError("stream has already been consumed")
    history = list(train_series.values)
    n_blocks = len(stream) // horizon
    lower, upper, y = (np.empty((n_blocks, horizon)) for _ in range(3))
    alphas = np.full(len(scores), float(alpha))
    trace = [alphas]
    qhat = conformal_quantile(scores, alphas)
    for b in range(n_blocks):
        lo, hi = band(history)
        lower[b], upper[b] = cqr_interval(lo, hi, qhat)
        check_bounds(lower[b], upper[b])
        stream.submit(horizon)
        y[b] = stream.reveal(horizon)
        history.extend(y[b])
        if slide is not None:
            window, rescore = slide
            window.push(rescore(lo, hi, y[b], history))
            if gamma is not None:
                alphas = aci_update(alphas, alpha, gamma, covered(lower[b], upper[b], y[b]))
                trace.append(alphas)
            qhat = conformal_quantile(window.values(), alphas)
    origins = len(train_series) + 1 + horizon * np.arange(n_blocks)
    for a in (origins, lower, upper, y):
        a.flags.writeable = False
    return origins, lower, upper, y, None if gamma is None else np.asarray(trace).T


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


def _check_widths(nets, frame):
    """Raise DimensionMismatch unless each injected net maps a lag window of
    the frame to one value per target step."""
    for sizes in (net.layer_sizes for net in nets):
        if (sizes[0], sizes[-1]) != (frame.n_lags, frame.horizon):
            raise DimensionMismatch(f"an injected net maps {sizes[0]} inputs to {sizes[-1]} "
                                    f"outputs; the frame needs {frame.n_lags} to {frame.horizon}")


def _take_or_fit(frame, taus, n_models, seed, config, ensembles):
    """``fit_ensemble``'s list for the levels ``taus``, or the injected
    ``ensembles``, checked to be that: one per level, all on one set of bags."""
    if ensembles is None:
        return fit_ensemble(frame, taus, n_models, seed, config)
    if len(ensembles) != len(taus):
        raise ValueError(f"expected {len(taus)} ensembles, one per level, got {len(ensembles)}")
    _check_widths([net for ens in ensembles for net in ens.members], frame)
    first = ensembles[0].index_sets
    if any(len(e.index_sets) != len(first) or not all(map(np.array_equal, first, e.index_sets))
           for e in ensembles[1:]):
        raise ValueError("paired ensembles must share bootstrap index sets")
    return ensembles


def run_aenbmimocqr(
    train_series: TimeSeries,
    stream: FeedbackStream,
    *,
    n_lags: int,
    horizon: int,
    alpha: float,
    n_models: int = RunDefaults.n_models,
    window_size: int = RunDefaults.window_size,
    seed: int = 0,
    config: TrainConfig = TrainConfig(),
    ensembles: list[BootstrapEnsemble] | None = None,
    gamma_override: float | None = None,
) -> RunResult:
    """Adaptive bagged multi-output conformalized quantile regression.

    Fits lower/upper multi-output quantile ensembles over shared bootstrap
    resamples and walks the test segment with these parts: the ordered
    mean band at each block's origin; every out-of-bag score as the
    per-step calibration; per-step windows of ``window_size`` sampled
    out-of-bag scores that slide; and ACI levels at rate ``gamma``.

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

    ``ensembles`` injects ``fit_ensemble``'s (lower, upper) list in place of
    training; ``gamma_override`` pins the adaptation rate, a finite value
    >= 0 (0 disables adaptation), both mainly for equivalence testing.
    """
    levels = check_run("aenbmimocqr", len(stream), len(train_series), n_lags=n_lags,
                       horizon=horizon, alpha=alpha, trains=ensembles is None,
                       n_models=n_models, window_size=window_size)
    if gamma_override is not None and not 0.0 <= gamma_override < np.inf:
        raise ValueError(f"gamma must be a finite number >= 0, got {gamma_override}")
    frame = frame_mimo(train_series, n_lags, horizon)
    lo_ens, hi_ens = _take_or_fit(frame, levels, n_models, seed, config, ensembles)

    scores, skipped = _oob_band_scores(lo_ens, hi_ens, frame)
    gamma = init_gamma(window_size, len(scores)) if gamma_override is None else gamma_override
    window = SlidingScoreWindow([
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

    def rescore(lo, hi, y, history):
        nonlocal lo_band, hi_band
        new_lo, new_hi = _trailing_bands(lo_ens, hi_ens, history, n_lags, horizon)
        lo_t = np.vstack([lo_band, new_lo])[score_rows, steps[:, None]]
        hi_t = np.vstack([hi_band, new_hi])[score_rows, steps[:, None]]
        lo_band, hi_band = new_lo, new_hi
        return score_cqr(lo_t, hi_t, y)  # (step, target)

    return RunResult(
        *_walk(train_series, stream, horizon, alpha, lambda history: (lo_band[-1], hi_band[-1]),
               scores.T, (window, rescore), gamma),
        skipped_oob_rows=skipped,
    )


def run_mimocqr(
    train_series: TimeSeries,
    stream: FeedbackStream,
    *,
    n_lags: int,
    horizon: int,
    alpha: float,
    cal_fraction: float = RunDefaults.cal_fraction,
    seed: int = 0,
    config: TrainConfig = TrainConfig(),
    models: tuple | None = None,
) -> RunResult:
    """Split conformalized multi-output quantile regression, no adaptation.

    The supervised rows are split in time order: the first part trains the
    lower/upper quantile nets, the last ``cal_fraction`` of rows calibrates
    one correction per forecast step. Corrections stay frozen across the
    whole test segment. ``models`` injects a (lower, upper) pair of
    QuantileNets in place of training.
    """
    levels = check_run("mimocqr", len(stream), len(train_series), n_lags=n_lags, horizon=horizon,
                       alpha=alpha, trains=models is None, cal_fraction=cal_fraction)
    frame = frame_mimo(train_series, n_lags, horizon)
    n_fit = frame.n_rows - int(frame.n_rows * cal_fraction)
    if models is None:
        f_lo, f_hi = (
            _train_net(frame, np.arange(n_fit), tau, derive_seed(seed, "mimocqr", side), config)
            for tau, side in zip(levels, ("lo", "hi")))
    else:
        _check_widths(models, frame)
        f_lo, f_hi = models

    cal_X = frame.covariates[n_fit:]
    lo_cal, hi_cal = _ordered_bounds(f_lo.predict_batch(cal_X), f_hi.predict_batch(cal_X))
    scores = score_cqr(lo_cal, hi_cal, frame.targets[n_fit:])

    def band(history):
        x = np.asarray(history[-n_lags:], dtype=float)
        return _ordered_bounds(f_lo.predict(x), f_hi.predict(x))

    return RunResult(*_walk(train_series, stream, horizon, alpha, band, scores.T))


def _recursive_walk(
    method: str,
    train_series: TimeSeries,
    stream: FeedbackStream,
    *,
    n_lags: int,
    horizon: int,
    alpha: float,
    n_models: int = RunDefaults.n_models,
    seed: int = 0,
    config: TrainConfig = TrainConfig(),
    ensembles: list[BootstrapEnsemble] | None = None,
) -> RunResult:
    """The run of the recursive methods; ``run_enbpi`` and ``run_enbcqr`` are
    this function with ``method`` bound.

    They fit (or take, as ``ensembles``) one-step ensembles on one set of
    bootstrap resamples: enbpi's squared-error ``(point,)``, or enbcqr's
    pinball ``(lower, median, upper)``. Each block's path is the point or
    median ensemble rolled forward ``horizon`` steps. The band is the lower
    and upper ensembles' mean at the path's lag windows, or the path itself
    for a point ensemble, so enbpi's scores are absolute residuals. One
    sliding window of CQR band scores, out-of-bag first and then ``horizon``
    per block, sets the one correction of every step.
    """
    levels = check_run(method, len(stream), len(train_series), n_lags=n_lags, horizon=horizon,
                       alpha=alpha, trains=ensembles is None, n_models=n_models)
    frame = frame_recursive(train_series, n_lags)
    taus = (None,) if method == "enbpi" else (levels[0], 0.5, levels[1])
    ensembles = _take_or_fit(frame, taus, n_models, seed, config, ensembles)
    lo_ens, med_ens, hi_ens = ensembles[0], ensembles[len(ensembles) // 2], ensembles[-1]
    scores, skipped = _oob_band_scores(lo_ens, hi_ens, frame)

    def band(history):
        last = np.asarray(history[-n_lags:], dtype=float)
        path = recursive_forecast(lambda x: med_ens.predict_mean(x[None])[0, 0], last, horizon)
        if len(ensembles) == 1:
            return path, path
        # the lag window of step h + 1: the last observations, then path[:h]
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([last, path[:-1]]), n_lags)
        return _ordered_bounds(*(ens.predict_mean(windows)[:, 0] for ens in (lo_ens, hi_ens)))

    slide = (SlidingScoreWindow(scores.T), lambda lo, hi, y, history: score_cqr(lo, hi, y))
    return RunResult(*_walk(train_series, stream, horizon, alpha, band, scores.T, slide),
                     skipped_oob_rows=skipped)


run_enbpi = partial(_recursive_walk, "enbpi")
run_enbcqr = partial(_recursive_walk, "enbcqr")
run_enbpi.__name__, run_enbcqr.__name__ = "run_enbpi", "run_enbcqr"  # partials have no name
