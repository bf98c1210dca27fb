"""Plain re-implementations of the four backtest procedures.

Everything here is deliberately written the slow, obvious way: explicit
loops, sorted lists, no imports from the package under test. Test modules
compare the production pipelines against these on small instances with
injected predictors. The oracles only call a predictor's ``predict`` on a
lag window and read its step predictions back, so they never depend on
what it is; the tests inject one-layer QuantileNets. Score windows are
kept as Python lists; the adaptive simulation requires the window capacity
to cover the whole initial score set so that no random subsampling is
involved.

``ref_fit`` is the one numpy routine: training is compared bit for bit, so
it must run the same float64 products, but it builds a fresh array for
every intermediate and updates each parameter array on its own.
``ref_gen_synthetic`` likewise draws from numpy's generator, one scalar
uniform per generated step.
"""

import math

import numpy as np


def kth_smallest(values, level):
    """The ceil((n+1)*level)-th smallest element, index clamped to [1, n]."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no scores")
    k = math.ceil((n + 1) * level)
    if k < 1:
        k = 1
    if k > n:
        k = n
    return ordered[k - 1]


def mimo_rows(values, p, H):
    rows = []
    for i in range(len(values) - p - H + 1):
        x = [float(v) for v in values[i:i + p]]
        y = [float(v) for v in values[i + p:i + p + H]]
        rows.append((x, y))
    return rows


def one_step_rows(values, p):
    return mimo_rows(values, p, 1)


def oob_mean_predictions(members, index_sets, rows):
    """Per-row mean prediction over members whose resample skipped the row.

    Returns a list with one entry per row: the averaged prediction list, or
    None for rows that every member trained on.
    """
    out = []
    for i, (x, _) in enumerate(rows):
        preds = []
        for member, idx in zip(members, index_sets):
            if i not in set(int(j) for j in idx):
                preds.append([float(v) for v in member.predict(x)])
        if not preds:
            out.append(None)
            continue
        H = len(preds[0])
        out.append([sum(pr[h] for pr in preds) / len(preds) for h in range(H)])
    return out


def full_mean_prediction(members, x):
    preds = [[float(v) for v in member.predict(x)] for member in members]
    H = len(preds[0])
    return [sum(pr[h] for pr in preds) / len(preds) for h in range(H)]


def band_interval(lo, hi, qhat):
    """[lo - qhat, hi + qhat], collapsing to the band midpoint if inverted."""
    lower = lo - qhat
    upper = hi + qhat
    if lower > upper:
        mid = 0.5 * (lo + hi)
        return (mid, mid)
    return (lower, upper)


def _ordered(a, b):
    return (a, b) if a <= b else (b, a)


def ref_aci_update(alphas, target, gamma, hits):
    """The ACI level rule one step at a time: alpha_h + gamma * (target -
    miss_h), clamped into [0, 1] with Python's min and max."""
    new = []
    for a, hit in zip(alphas, hits):
        miss = 0.0 if hit else 1.0
        new.append(min(max(a + gamma * (target - miss), 0.0), 1.0))
    return new


def sim_aenbmimocqr(train_values, test_values, p, H, alpha,
                    lo_members, hi_members, index_sets, T, gamma=None):
    """Re-simulate the adaptive bagged multi-output procedure.

    Returns a list of blocks, one dict per block with keys 'origin',
    'intervals' (list of (lower, upper) pairs) and 'alphas' (the per-step
    miscoverage levels after the block's update).
    """
    rows = mimo_rows(train_values, p, H)
    lo_oob = oob_mean_predictions(lo_members, index_sets, rows)
    hi_oob = oob_mean_predictions(hi_members, index_sets, rows)

    score_sets = [[] for _ in range(H)]
    for (x, y), plo, phi in zip(rows, lo_oob, hi_oob):
        if plo is None:
            continue
        for h in range(H):
            blo, bhi = _ordered(plo[h], phi[h])
            score_sets[h].append(max(blo - y[h], y[h] - bhi))

    n_scores = len(score_sets[0])
    if n_scores > T:
        raise ValueError("oracle simulation requires T >= initial score count")
    if gamma is None:
        gamma = 1.0 / max(T, n_scores)
    alphas = [alpha] * H
    qhat = [kth_smallest(score_sets[h], 1.0 - alpha) for h in range(H)]
    # the window never grows past its starting fill: every new score evicts
    # the oldest one, so the working size stays at min(T, initial count);
    # each block adds H new scores per step
    capacity = n_scores
    windows = [list(score_sets[h]) for h in range(H)]

    history = [float(v) for v in train_values]
    n_blocks = len(test_values) // H
    blocks = []
    for b in range(n_blocks):
        x = history[-p:]
        lo_pred = full_mean_prediction(lo_members, x)
        hi_pred = full_mean_prediction(hi_members, x)
        intervals = []
        for h in range(H):
            blo, bhi = _ordered(lo_pred[h], hi_pred[h])
            intervals.append(band_interval(blo, bhi, qhat[h]))
        y_block = [float(v) for v in test_values[b * H:(b + 1) * H]]
        history.extend(y_block)
        # every revealed value is the step-h target of the forecast made
        # from the origin h steps before it; score each one against that
        # forecast's raw band, oldest target first
        for h in range(1, H + 1):
            for j in range(H):
                t = len(train_values) + b * H + j  # 0-based series position
                origin_x = history[t - h + 1 - p:t - h + 1]
                blo, bhi = _ordered(full_mean_prediction(lo_members, origin_x)[h - 1],
                                    full_mean_prediction(hi_members, origin_x)[h - 1])
                windows[h - 1].append(max(blo - y_block[j], y_block[j] - bhi))
                if len(windows[h - 1]) > capacity:
                    windows[h - 1].pop(0)
        hits = [lower <= y <= upper for (lower, upper), y in zip(intervals, y_block)]
        alphas = ref_aci_update(alphas, alpha, gamma, hits)
        qhat = [kth_smallest(windows[h], 1.0 - alphas[h]) for h in range(H)]
        blocks.append({
            "origin": len(train_values) + b * H + 1,
            "intervals": intervals,
            "alphas": list(alphas),
        })
    return blocks


def sim_mimocqr(train_values, test_values, p, H, alpha, f_lo, f_hi, cal_fraction):
    rows = mimo_rows(train_values, p, H)
    n_cal = int(len(rows) * cal_fraction)
    cal_rows = rows[len(rows) - n_cal:]

    score_sets = [[] for _ in range(H)]
    for x, y in cal_rows:
        plo = [float(v) for v in f_lo.predict(x)]
        phi = [float(v) for v in f_hi.predict(x)]
        for h in range(H):
            blo, bhi = _ordered(plo[h], phi[h])
            score_sets[h].append(max(blo - y[h], y[h] - bhi))
    qhat = [kth_smallest(score_sets[h], 1.0 - alpha) for h in range(H)]

    history = [float(v) for v in train_values]
    blocks = []
    for b in range(len(test_values) // H):
        x = history[-p:]
        plo = [float(v) for v in f_lo.predict(x)]
        phi = [float(v) for v in f_hi.predict(x)]
        intervals = []
        for h in range(H):
            blo, bhi = _ordered(plo[h], phi[h])
            intervals.append(band_interval(blo, bhi, qhat[h]))
        y_block = [float(v) for v in test_values[b * H:(b + 1) * H]]
        history.extend(y_block)
        blocks.append({
            "origin": len(train_values) + b * H + 1,
            "intervals": intervals,
        })
    return blocks


def sim_enbpi(train_values, test_values, p, H, alpha, members, index_sets):
    rows = one_step_rows(train_values, p)
    oob = oob_mean_predictions(members, index_sets, rows)
    residuals = []
    for (x, y), pred in zip(rows, oob):
        if pred is None:
            continue
        residuals.append(abs(pred[0] - y[0]))
    capacity = len(residuals)
    window = list(residuals)
    qhat = kth_smallest(window, 1.0 - alpha)

    history = [float(v) for v in train_values]
    blocks = []
    for b in range(len(test_values) // H):
        buffer = history[-p:]
        points = []
        for _ in range(H):
            pred = full_mean_prediction(members, buffer[-p:])[0]
            points.append(pred)
            buffer.append(pred)
        intervals = [(points[h] - qhat, points[h] + qhat) for h in range(H)]
        y_block = [float(v) for v in test_values[b * H:(b + 1) * H]]
        for h in range(H):
            window.append(abs(points[h] - y_block[h]))
            if len(window) > capacity:
                window.pop(0)
        qhat = kth_smallest(window, 1.0 - alpha)
        history.extend(y_block)
        blocks.append({
            "origin": len(train_values) + b * H + 1,
            "intervals": intervals,
        })
    return blocks


def sim_enbcqr(train_values, test_values, p, H, alpha,
               lo_members, med_members, hi_members, index_sets):
    rows = one_step_rows(train_values, p)
    lo_oob = oob_mean_predictions(lo_members, index_sets, rows)
    hi_oob = oob_mean_predictions(hi_members, index_sets, rows)
    scores = []
    for (x, y), plo, phi in zip(rows, lo_oob, hi_oob):
        if plo is None:
            continue
        blo, bhi = _ordered(plo[0], phi[0])
        scores.append(max(blo - y[0], y[0] - bhi))
    capacity = len(scores)
    window = list(scores)
    qhat = kth_smallest(window, 1.0 - alpha)

    history = [float(v) for v in train_values]
    blocks = []
    for b in range(len(test_values) // H):
        buffer = history[-p:]
        bands = []
        for _ in range(H):
            x = buffer[-p:]
            blo, bhi = _ordered(
                full_mean_prediction(lo_members, x)[0],
                full_mean_prediction(hi_members, x)[0],
            )
            bands.append((blo, bhi))
            buffer.append(full_mean_prediction(med_members, x)[0])
        intervals = [band_interval(blo, bhi, qhat) for blo, bhi in bands]
        y_block = [float(v) for v in test_values[b * H:(b + 1) * H]]
        for h in range(H):
            blo, bhi = bands[h]
            window.append(max(blo - y_block[h], y_block[h] - bhi))
            if len(window) > capacity:
                window.pop(0)
        qhat = kth_smallest(window, 1.0 - alpha)
        history.extend(y_block)
        blocks.append({
            "origin": len(train_values) + b * H + 1,
            "intervals": intervals,
        })
    return blocks


def ref_fit(covariates, targets, tau, epochs, lr, seed, hidden, counts=None):
    """Train a ReLU network the straightforward way; tau None means squared
    error, else pinball loss at tau.

    ``counts`` None is the plain mean loss over every row and output.
    Otherwise row i stands for ``counts[i]`` copies of itself: the
    standardization is taken over the rows repeated by their counts, the
    loss is sum(counts * terms) / (sum(counts) * H), and the output delta
    is multiplied by the counts before that division.

    Inputs and targets are standardized by the covariates' mean and
    standard deviation, weights start fan-in uniform from
    ``default_rng(seed)`` with zero biases, every epoch takes one full-batch
    Adam step (beta1 0.9, beta2 0.999, eps 1e-8), and the affine map is
    folded back into the first and last layers. Returns (weights, biases,
    losses) with one loss per epoch plus the loss after the last step.
    """
    X = np.asarray(covariates, dtype=float)
    Y = np.asarray(targets, dtype=float)
    bag = X if counts is None else np.repeat(X, counts, axis=0)
    loc = float(np.mean(bag))
    scale = float(np.std(bag))
    if not scale > 0.0:
        scale = 1.0
    X = (X - loc) / scale
    Y = (Y - loc) / scale
    rng = np.random.default_rng(seed)
    sizes = [X.shape[1]] + list(hidden) + [Y.shape[1]]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))

    def forward():
        inputs, preacts = [X], []
        a = X
        for W, b in zip(weights[:-1], biases[:-1]):
            z = a @ W + b
            preacts.append(z)
            a = np.maximum(z, 0.0)
            inputs.append(a)
        return inputs, preacts, a @ weights[-1] + biases[-1]

    if counts is not None:
        w = np.asarray(counts, dtype=float)[:, None]
        total = float(np.sum(counts)) * Y.shape[1]

    def mean_loss(u):
        terms = u * u if tau is None else np.maximum(tau * u, (tau - 1.0) * u)
        if counts is None:
            return float(np.mean(terms))
        return float(np.sum(terms * w)) / total

    m = [np.zeros_like(p) for p in weights + biases]
    v = [np.zeros_like(p) for p in weights + biases]
    losses = []
    for step in range(1, epochs + 1):
        inputs, preacts, out = forward()
        u = Y - out
        losses.append(mean_loss(u))
        delta = 2.0 * (out - Y) if tau is None else np.where(u >= 0.0, -tau, 1.0 - tau)
        delta = delta / u.size if counts is None else (delta * w) / total
        grad_w = [None] * len(weights)
        grad_b = [None] * len(weights)
        for k in range(len(weights) - 1, -1, -1):
            grad_w[k] = inputs[k].T @ delta
            grad_b[k] = delta.sum(axis=0)
            if k > 0:
                delta = (delta @ weights[k].T) * (preacts[k - 1] > 0.0)
        c1 = 1.0 - 0.9**step
        c2 = 1.0 - 0.999**step
        for p, g, mi, vi in zip(weights + biases, grad_w + grad_b, m, v):
            mi += (1.0 - 0.9) * (g - mi)
            vi += (1.0 - 0.999) * (g * g - vi)
            p -= lr * (mi / c1) / (np.sqrt(vi / c2) + 1e-8)
    _, _, out = forward()
    losses.append(mean_loss(Y - out))
    w0 = weights[0]
    weights[0] = w0 / scale
    biases[0] = biases[0] - (loc / scale) * w0.sum(axis=0)
    weights[-1] = weights[-1] * scale
    biases[-1] = biases[-1] * scale + loc
    return weights, biases, losses


def ref_gen_synthetic(seed, length, warmup, oracle_alpha, quantile):
    """The synthetic series the slow way: one scalar uniform per step from
    ``default_rng(seed)`` (after ``warmup`` uniforms for the warmup values),
    a fresh fsum over the window for every mean. ``quantile`` is the
    standard normal quantile to transform draws with. Returns (values, mu,
    sigma, lower, upper), NaN over the warmup for all but the values.
    """
    rng = np.random.default_rng(seed)
    y = np.empty(length)
    y[:warmup] = rng.random(warmup)
    mu = np.full(length, np.nan)
    sigma = np.full(length, np.nan)
    for t in range(warmup, length):
        m = math.log(math.fsum(v * v for v in y[t - warmup:t]))
        sd = (0.1 + 0.001 * (t + 1)) * m
        mu[t] = m
        sigma[t] = sd
        u = float(rng.integers(1, 2**53)) / 2**53
        y[t] = m + sd * quantile(u)
    z = quantile(1.0 - oracle_alpha / 2.0)
    return y, mu, sigma, mu - z * sigma, mu + z * sigma
