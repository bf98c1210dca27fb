"""Fourteen acceptance checks with pinned thresholds.

Every test prints one line, ``criterion N: PASS (...)`` or ``criterion N:
FAIL (...)``, before asserting, so the captured output names each
threshold next to the measured value. The two benchmark checks share
backtests through a module-level cache and dominate the runtime; expect
a few minutes at the pinned training budget.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from conformalts.adaptive import SlidingScoreWindow, aci_update
from conformalts.cli import ExperimentConfig, cmd_run
from conformalts.conformal import conformal_quantile
from conformalts.data import SyntheticConfig, gen_synthetic, split_train_test
from conformalts.framing import TimeSeries, covered, frame_mimo
from conformalts.metrics import evaluate, miou, picp, pinaw
from conformalts.pipelines import (
    BootstrapEnsemble,
    FeedbackStream,
    fit_ensemble,
    run_aenbmimocqr,
    run_enbcqr,
    run_enbpi,
    run_mimocqr,
)
from conformalts.quantile_net import TrainConfig, init_net, loss_and_gradients
from support import make_affine_member, make_affine_members, random_index_sets


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_split_coverage():
    """Split-conformal absolute-residual intervals hit the target coverage."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    alpha = 0.1
    trials = 500
    coverages = np.empty(trials)
    for t in range(trials):
        beta = rng.normal()
        x_cal = rng.normal(size=1000)
        y_cal = beta * x_cal + rng.normal(size=1000)
        qhat = conformal_quantile(np.abs(beta * x_cal - y_cal), alpha)
        x_new = rng.normal(size=1000)
        y_new = beta * x_new + rng.normal(size=1000)
        coverages[t] = np.mean(np.abs(beta * x_new - y_new) <= qhat)
    mean_cov = float(coverages.mean())
    elapsed = time.perf_counter() - start
    ok = 0.890 <= mean_cov <= 0.911 and elapsed < 60.0
    _line(1, ok, f"mean coverage {mean_cov:.4f} in [0.890, 0.911] over "
                 f"{trials} trials of 1000 calibration points, {elapsed:.1f}s < 60s")
    assert 0.890 <= mean_cov <= 0.911
    assert elapsed < 60.0


def test_criterion_02_rank_uniformity():
    """The rank of a fresh score among 99 calibration scores is uniform."""
    rng = np.random.default_rng(202)
    n_trials = 100_000
    counts = np.zeros(100, dtype=np.int64)
    for _ in range(5):
        draws = rng.normal(size=(n_trials // 5, 100))
        ranks = 1 + np.sum(draws[:, :99] < draws[:, 99:], axis=1)
        counts += np.bincount(ranks, minlength=101)[1:]
    expected = n_trials / 100.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    try:
        from scipy.stats import chi2

        threshold = float(chi2.isf(0.001, 99))
        tail = f"p {float(chi2.sf(stat, 99)):.4f} > 0.001"
    except ImportError:
        # Wilson-Hilferty cube approximation of the 0.999 quantile, 99 dof
        z999 = 3.090232306167814
        df = 99.0
        threshold = df * (1.0 - 2.0 / (9.0 * df)
                          + z999 * math.sqrt(2.0 / (9.0 * df))) ** 3
        tail = f"approximate threshold {threshold:.1f}"

    # the split coverage event must be exactly the rank event it abbreviates
    check = np.random.default_rng(203).normal(size=(2000, 100))
    qhats = np.array([conformal_quantile(row[:99], 0.1) for row in check])
    ranks = 1 + np.sum(check[:, :99] < check[:, 99:], axis=1)
    agree = bool(np.array_equal(check[:, 99] <= qhats, ranks <= 90))

    ok = stat < threshold and agree
    _line(2, ok, f"chi-square stat {stat:.1f} < {threshold:.1f} over "
                 f"{n_trials} trials, {tail}, coverage event equals rank <= 90: {agree}")
    assert stat < threshold
    assert agree


def test_criterion_03_adaptive_miss_bound():
    """Running miss rates stay inside the deterministic adaptation bound."""
    alpha = 0.1
    n_steps = 1000
    worst = 0.0
    violations = 0
    clamp_hits = 0
    for gamma in (1.0 / 100.0, 1.0 / 1000.0):
        for kind, seed in (("calibrated", 31), ("calibrated", 32),
                           ("calibrated", 33), ("drifting", 34)):
            rng = np.random.default_rng(seed)
            alphas = np.full(1, alpha)
            numerator = max(alphas[0], 1.0 - alphas[0]) + gamma
            misses = 0
            for t in range(1, n_steps + 1):
                level = float(alphas[0])
                if not 0.0 < level < 1.0:
                    clamp_hits += 1
                p_miss = level
                if kind == "drifting":
                    p_miss = min(0.9, max(0.02, level * (1.6 if t > 500 else 0.4)))
                miss = bool(rng.random() < p_miss)
                misses += int(miss)
                alphas = aci_update(alphas, alpha, gamma, [not miss])
                gap = abs(misses / t - alpha)
                bound = numerator / (t * gamma)
                if gap > bound:
                    violations += 1
                worst = max(worst, gap / bound)
    ok = violations == 0 and clamp_hits == 0
    _line(3, ok, f"8 sequences of {n_steps} steps at gamma 1/100 and 1/1000, "
                 f"|miss rate - 0.1| <= (max(a1, 1-a1) + g)/(ng) at every step, "
                 f"worst gap-to-bound ratio {worst:.3f}")
    assert violations == 0
    # the telescoping argument needs the level to stay off the clamp
    assert clamp_hits == 0


def test_criterion_04_pinball_gradient():
    """Analytic pinball gradients match central finite differences, with
    unit row counts and with the non-unit counts of a weighted bag."""
    rng = np.random.default_rng(404)
    net = init_net(3, 2, (10, 6), 0.25, seed=44)
    X = rng.normal(size=(40, 3))
    Y = rng.normal(size=(40, 2)) * 2.0 + 3.0
    bag_counts = rng.integers(1, 4, size=40)
    margin = float(np.min(np.abs(Y - net.predict_batch(X))))
    assert margin > 1e-3  # keeps every finite-difference evaluation off the kink

    h = 1e-5
    checked = 0
    worst_rel = 0.0
    worst_zero = 0.0
    for counts in (None, bag_counts):
        _, grad_w, grad_b = loss_and_gradients(net, X, Y, counts)
        for params, grads in ((net.weights, grad_w), (net.biases, grad_b)):
            for p_arr, g_arr in zip(params, grads):
                flat_p = p_arr.reshape(-1)
                flat_g = g_arr.reshape(-1)
                for i in range(flat_p.size):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    up, _, _ = loss_and_gradients(net, X, Y, counts)
                    flat_p[i] = orig - h
                    down, _, _ = loss_and_gradients(net, X, Y, counts)
                    flat_p[i] = orig
                    fd = (up - down) / (2.0 * h)
                    if abs(fd) > 1e-12:
                        worst_rel = max(worst_rel, abs(flat_g[i] - fd) / abs(fd))
                    else:
                        worst_zero = max(worst_zero, abs(flat_g[i]))
                    checked += 1
    ok = checked >= 200 and worst_rel < 1e-4 and worst_zero < 1e-8
    _line(4, ok, f"{checked} parameter coordinates over unit and bag counts, h 1e-5, "
                 f"worst relative error {worst_rel:.2e} < 1e-4")
    assert checked >= 200
    assert worst_rel < 1e-4
    assert worst_zero < 1e-8


def _sets_with_oob(rng, n_members, n_rows):
    """Bootstrap index sets, redrawn until some row is out of every bag."""
    while True:
        sets = random_index_sets(n_members, n_rows, rng)
        in_every = np.ones(n_rows, dtype=bool)
        for s in sets:
            mask = np.zeros(n_rows, dtype=bool)
            mask[np.asarray(s)] = True
            in_every &= mask
        if not bool(in_every.all()):
            return sets


def _compare_blocks(result, blocks, structural, method, case):
    worst = 0.0
    if result.n_blocks != len(blocks):
        structural.append(
            f"{method} case {case}: {result.n_blocks} blocks vs {len(blocks)}")
        return worst
    for origin, lower, upper, expected in zip(result.origins, result.lower, result.upper, blocks):
        if origin != expected["origin"]:
            structural.append(
                f"{method} case {case}: origin {origin} vs {expected['origin']}")
        for got_lo, got_hi, (lo, hi) in zip(lower, upper, expected["intervals"]):
            worst = max(worst, abs(got_lo - lo), abs(got_hi - hi))
    return worst


def test_criterion_05_runner_oracle_equivalence():
    """All four backtest runners match an independent re-simulation."""
    rng = np.random.default_rng(505)
    n_instances = 50
    max_err = 0.0
    structural = []
    for case in range(n_instances):
        p = int(rng.integers(1, 4))
        H = int(rng.integers(1, 4))
        n_train = int(rng.integers(p + H + 4, 26))
        n_blocks = int(rng.integers(1, 4))
        alpha = float(rng.choice([0.1, 0.2]))
        train = TimeSeries(rng.uniform(1.0, 3.0, size=n_train))
        test_vals = rng.uniform(1.0, 3.0, size=n_blocks * H)
        base = 1000 + case * 101

        rows_m = n_train - p - H + 1
        sets_m = _sets_with_oob(rng, 2, rows_m)
        lo = make_affine_members(2, p, H, seed=base + 1, scale=0.4)
        hi = make_affine_members(2, p, H, seed=base + 2, scale=0.4)
        T = 30  # never below the score count, so no window thinning
        result = run_aenbmimocqr(
            train, FeedbackStream(test_vals), n_lags=p, horizon=H, alpha=alpha,
            window_size=T,
            ensembles=(BootstrapEnsemble(lo, sets_m), BootstrapEnsemble(hi, sets_m)))
        blocks = oracles.sim_aenbmimocqr(
            train.values, test_vals, p, H, alpha, lo, hi, sets_m, T)
        max_err = max(max_err,
                      _compare_blocks(result, blocks, structural, "aenbmimocqr", case))
        for k, b in enumerate(blocks):
            diff = np.abs(result.alpha_traces[:, k + 1] - np.asarray(b["alphas"]))
            max_err = max(max_err, float(diff.max()))

        f_lo = make_affine_member(p, H, seed=base + 3, scale=0.4)
        f_hi = make_affine_member(p, H, seed=base + 4, scale=0.4)
        cal_fraction = float(rng.choice([0.3, 0.5, 1.0]))
        result = run_mimocqr(
            train, FeedbackStream(test_vals), n_lags=p, horizon=H, alpha=alpha,
            cal_fraction=cal_fraction, models=(f_lo, f_hi))
        blocks = oracles.sim_mimocqr(
            train.values, test_vals, p, H, alpha, f_lo, f_hi, cal_fraction)
        max_err = max(max_err,
                      _compare_blocks(result, blocks, structural, "mimocqr", case))

        rows_1 = n_train - p
        sets_1 = _sets_with_oob(rng, 2, rows_1)
        mean_members = make_affine_members(2, p, 1, seed=base + 5, scale=0.4)
        result = run_enbpi(
            train, FeedbackStream(test_vals), n_lags=p, horizon=H, alpha=alpha,
            ensembles=(BootstrapEnsemble(mean_members, sets_1),))
        blocks = oracles.sim_enbpi(
            train.values, test_vals, p, H, alpha, mean_members, sets_1)
        max_err = max(max_err,
                      _compare_blocks(result, blocks, structural, "enbpi", case))

        lo1 = make_affine_members(2, p, 1, seed=base + 6, scale=0.4)
        med1 = make_affine_members(2, p, 1, seed=base + 7, scale=0.4)
        hi1 = make_affine_members(2, p, 1, seed=base + 8, scale=0.4)
        result = run_enbcqr(
            train, FeedbackStream(test_vals), n_lags=p, horizon=H, alpha=alpha,
            ensembles=(BootstrapEnsemble(lo1, sets_1),
                       BootstrapEnsemble(med1, sets_1),
                       BootstrapEnsemble(hi1, sets_1)))
        blocks = oracles.sim_enbcqr(
            train.values, test_vals, p, H, alpha, lo1, med1, hi1, sets_1)
        max_err = max(max_err,
                      _compare_blocks(result, blocks, structural, "enbcqr", case))

    ok = max_err <= 1e-10 and not structural
    _line(5, ok, f"{n_instances} random instances, four methods each, "
                 f"max deviation {max_err:.2e} <= 1e-10")
    assert not structural, structural[:3]
    assert max_err <= 1e-10


def test_criterion_06_metric_brute_force():
    """Interval metrics agree with direct recomputation and worked examples."""
    rng = np.random.default_rng(606)
    n_instances = 1000
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(2, 9))
        y = rng.normal(size=n) * 2.0
        lo = y + rng.uniform(-1.5, 0.5, size=n)
        width = rng.uniform(0.0, 2.0, size=n)
        width[rng.random(size=n) < 0.15] = 0.0
        hi = lo + width
        ref_lo = y + rng.uniform(-1.5, 0.5, size=n)
        ref_hi = ref_lo + rng.uniform(0.0, 2.0, size=n)
        point_ref = rng.random(size=n) < 0.1
        ref_lo[point_ref] = lo[point_ref]
        ref_hi[point_ref] = hi[point_ref]

        covered = sum(1 for a, b, v in zip(lo, hi, y) if a <= v <= b)
        worst = max(worst, abs(picp(lo, hi, y) - covered / n))

        value_range = float(y.max() - y.min())
        mean_width = sum(float(b - a) for a, b in zip(lo, hi)) / n
        worst = max(worst, abs(pinaw(lo, hi, y) - mean_width / value_range))

        terms = []
        for a, b, ra, rb in zip(lo, hi, ref_lo, ref_hi):
            union = max(b, rb) - min(a, ra)
            if union == 0.0:
                terms.append(1.0)
            else:
                terms.append(max(0.0, min(b, rb) - max(a, ra)) / union)
        worst = max(worst, abs(miou(lo, hi, ref_lo, ref_hi) - sum(terms) / n))

    examples = (
        miou([3.0], [5.0], [4.0], [6.0]) == 1.0 / 3.0,
        picp([0.0] * 3, [1.0] * 3, np.array([0.5, 2.0, 1.0])) == 2.0 / 3.0,
        pinaw([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], np.array([0.0, 4.0, 2.0])) == 0.5,
    )
    ok = worst <= 1e-12 and all(examples)
    _line(6, ok, f"{n_instances} random instances recomputed directly, "
                 f"max deviation {worst:.2e} <= 1e-12, worked examples exact: {all(examples)}")
    assert worst <= 1e-12
    assert all(examples), examples


_BENCH: dict[tuple[int, str], tuple[float, float]] = {}


def _benchmark(seed: int, method: str) -> tuple[float, float]:
    """Coverage and overlap for one synthetic backtest at pinned defaults."""
    key = (seed, method)
    if key not in _BENCH:
        series, oracle = gen_synthetic(SyntheticConfig(seed=seed))
        train, test = split_train_test(series, 390)
        stream = FeedbackStream(test.values)
        common = dict(n_lags=40, horizon=30, alpha=0.1, seed=seed,
                      config=TrainConfig(epochs=1000))
        if method == "aenbmimocqr":
            result = run_aenbmimocqr(train, stream, n_models=10,
                                     window_size=100, **common)
        elif method == "mimocqr":
            result = run_mimocqr(train, stream, cal_fraction=0.5, **common)
        else:
            result = run_enbpi(train, stream, n_models=10, **common)
        horizons = np.tile(np.arange(1, result.horizon + 1), result.n_blocks)
        positions = np.repeat(result.origins, result.horizon) + horizons - 2
        reference = (oracle.lower[positions], oracle.upper[positions])
        report = evaluate(result.lower.ravel(), result.upper.ravel(), result.y.ravel(),
                          horizons, reference)
        _BENCH[key] = (report.picp, report.miou)
    return _BENCH[key]


@pytest.mark.slow
def test_criterion_07_benchmark_interval_quality():
    """The adaptive method tracks the oracle band best on synthetic data."""
    start = time.perf_counter()
    seeds = range(1, 6)
    medians = {}
    for method in ("aenbmimocqr", "mimocqr", "enbpi"):
        medians[method] = float(np.median([_benchmark(s, method)[1] for s in seeds]))
    elapsed = time.perf_counter() - start
    ok = (medians["aenbmimocqr"] > medians["mimocqr"]
          and medians["aenbmimocqr"] > medians["enbpi"]
          and medians["aenbmimocqr"] >= 0.75
          and elapsed <= 1800.0)
    _line(7, ok, f"median oracle overlap over 5 seeds: aenbmimocqr "
                 f"{medians['aenbmimocqr']:.4f} vs mimocqr {medians['mimocqr']:.4f} "
                 f"and enbpi {medians['enbpi']:.4f}, floor 0.75, {elapsed:.0f}s <= 1800s")
    assert medians["aenbmimocqr"] > medians["mimocqr"]
    assert medians["aenbmimocqr"] > medians["enbpi"]
    assert medians["aenbmimocqr"] >= 0.75
    assert elapsed <= 1800.0


@pytest.mark.slow
def test_criterion_08_benchmark_coverage():
    """Coverage calibration of the adaptive method across 10 synthetic seeds.

    Both backtests emit 390 intervals per seed, so the overall coverage
    equals the mean of the per-seed rates.
    """
    seeds = range(1, 11)
    aenb = [_benchmark(s, "aenbmimocqr")[0] for s in seeds]
    mimo = [_benchmark(s, "mimocqr")[0] for s in seeds]
    overall = float(np.mean(aenb))
    closer = sum(1 for a, m in zip(aenb, mimo)
                 if abs(a - 0.9) <= abs(m - 0.9))
    in_band = 0.85 <= overall <= 0.95
    ok = in_band and closer >= 7
    _line(8, ok, f"overall coverage {overall:.4f} against [0.85, 0.95], "
                 f"closer to 0.90 than mimocqr in {closer}/10 seeds, need 7")
    assert closer >= 7, (aenb, mimo)
    assert in_band, (
        f"overall coverage {overall:.4f} outside [0.85, 0.95]; "
        f"per-seed rates {[round(a, 4) for a in aenb]}")


def _strip_timestamp(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("timestamp", None)
    return json.dumps(payload, indent=2, sort_keys=True)


_CLI_CODE = "import sys; from conformalts.cli import main; sys.exit(main(sys.argv[1:]))"


def _cli_args(out_dir):
    return ["run", "--synthetic", "--length", "120", "--seed", "11",
            "--method", "aenbmimocqr", "--p", "5", "--H", "2", "--B", "2",
            "--T", "20", "--n-test", "10", "--epochs", "4", "--hidden", "6",
            "--out", str(out_dir)]


def test_criterion_09_run_determinism(tmp_path):
    """Same seed means byte-identical results, whatever the thread count."""
    cfg = ExperimentConfig(method="aenbmimocqr", synthetic=True, length=120,
                           seed=11, n_lags=5, horizon=2, n_models=2,
                           window_size=20, n_test=10, epochs=4, hidden=(6,))
    cfg.validate()
    for sub in ("a", "b"):
        cmd_run(cfg, tmp_path / sub)
    same_json = (_strip_timestamp(tmp_path / "a" / "results.json")
                 == _strip_timestamp(tmp_path / "b" / "results.json"))
    same_csv = ((tmp_path / "a" / "intervals.csv").read_bytes()
                == (tmp_path / "b" / "intervals.csv").read_bytes())

    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _CLI_CODE, *_cli_args(out_dir)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((_strip_timestamp(out_dir / "results.json"),
                        (out_dir / "intervals.csv").read_bytes()))
    same_threads = outputs[0] == outputs[1]

    ok = same_json and same_csv and same_threads
    _line(9, ok, f"repeat run identical {same_json}, csv identical {same_csv}, "
                 f"1 vs 2 forced threads identical {same_threads}, "
                 f"timestamp block excluded")
    assert same_json
    assert same_csv
    assert same_threads


def test_criterion_10_window_and_cadence_invariants(window_widths):
    """Window sizes stay fixed and state changes only at block boundaries."""
    rng = np.random.default_rng(1010)
    methods = ("aenbmimocqr", "mimocqr", "enbpi", "enbcqr")
    problems = []
    for trial in range(100):
        method = methods[trial % 4]
        p = int(rng.integers(1, 4))
        H = int(rng.integers(1, 4))
        n_train = int(rng.integers(p + H + 4, 26))
        n_blocks = int(rng.integers(1, 4))
        train = TimeSeries(rng.uniform(1.0, 2.0, size=n_train))
        stream = FeedbackStream(rng.uniform(1.0, 2.0, size=n_blocks * H))
        base = 5000 + trial * 31
        window_widths.clear()

        if method == "aenbmimocqr":
            rows = n_train - p - H + 1
            sets = _sets_with_oob(rng, 2, rows)
            T = int(rng.integers(2, 31))  # sometimes below the score count
            result = run_aenbmimocqr(
                train, stream, n_lags=p, horizon=H, alpha=0.1, window_size=T,
                ensembles=(BootstrapEnsemble(make_affine_members(2, p, H, seed=base, scale=0.4), sets),
                           BootstrapEnsemble(make_affine_members(2, p, H, seed=base + 1, scale=0.4), sets)))
            kept = rows - result.skipped_oob_rows
            expected_size = min(T, kept)
            if result.alpha_traces.shape != (H, n_blocks + 1):
                problems.append(f"trial {trial}: alpha trace shape {result.alpha_traces.shape}")
        elif method == "mimocqr":
            result = run_mimocqr(
                train, stream, n_lags=p, horizon=H, alpha=0.1,
                cal_fraction=float(rng.choice([0.3, 0.5, 1.0])),
                models=(make_affine_member(p, H, seed=base, scale=0.4),
                        make_affine_member(p, H, seed=base + 1, scale=0.4)))
            expected_size = None
        else:
            rows = n_train - p
            sets = _sets_with_oob(rng, 2, rows)
            if method == "enbpi":
                result = run_enbpi(
                    train, stream, n_lags=p, horizon=H, alpha=0.1,
                    ensembles=(BootstrapEnsemble(
                        make_affine_members(2, p, 1, seed=base, scale=0.4), sets),))
            else:
                result = run_enbcqr(
                    train, stream, n_lags=p, horizon=H, alpha=0.1,
                    ensembles=(BootstrapEnsemble(make_affine_members(2, p, 1, seed=base, scale=0.4), sets),
                               BootstrapEnsemble(make_affine_members(2, p, 1, seed=base + 1, scale=0.4), sets),
                               BootstrapEnsemble(make_affine_members(2, p, 1, seed=base + 2, scale=0.4), sets)))
            expected_size = rows - result.skipped_oob_rows

        if np.any(result.lower > result.upper):
            problems.append(f"trial {trial}: {method} emitted an inverted interval")

        expected_events = []
        for b in range(n_blocks):
            expected_events.append(("submit", b * H, H))
            expected_events.append(("reveal", b * H, H))
        if stream.events != expected_events:
            problems.append(f"trial {trial}: {method} cadence {stream.events}")

        # one window, built at its fixed width and pushed once per block
        expected = [] if expected_size is None else [[expected_size] * (n_blocks + 1)]
        if window_widths != expected:
            problems.append(f"trial {trial}: {method} window widths {window_widths} "
                            f"!= {expected}")

    ok = not problems
    _line(10, ok, "100 fuzzed runs, fixed window sizes, ordered bounds on every "
                  "interval, submit and reveal alternating per block"
                  + ("" if ok else f", {len(problems)} problems"))
    assert not problems, problems[:5]


@pytest.fixture(scope="module")
def long_walks():
    """Seeds 1 and 2 walked 150 blocks (p=40, H=30, alpha=0.1, 5 epochs)
    by aenbmimocqr and mimocqr, each trained once: {seed: {method: result,
    "sigma": the oracle sigma at each target, shaped like result.y}}."""
    walks = {}
    for seed in (1, 2):
        series, oracle = gen_synthetic(SyntheticConfig(seed=seed, length=5151))
        train, test = split_train_test(series, 4500)
        common = dict(n_lags=40, horizon=30, alpha=0.1, seed=seed,
                      config=TrainConfig(epochs=5))
        walks[seed] = {
            "aenbmimocqr": run_aenbmimocqr(train, FeedbackStream(test), n_models=10,
                                           window_size=100, **common),
            "mimocqr": run_mimocqr(train, FeedbackStream(test), cal_fraction=0.5, **common),
            "sigma": oracle.sigma[len(train):].reshape(-1, 30),
        }
    return walks


def _coverage_by_third(result) -> np.ndarray:
    hits = covered(result.lower, result.upper, result.y)
    return hits.reshape(3, -1).mean(axis=1)


def test_criterion_11_long_walk_validity(long_walks):
    """The adaptive method stays valid over a long walk without retraining.

    The band is binomial in blocks, not intervals: the H intervals of one
    origin are correlated, so each third counts as its 50 blocks.
    """
    alpha, blocks_per_third = 0.1, 50
    half_width = 3.0 * math.sqrt(alpha * (1.0 - alpha) / blocks_per_third)
    low, high = 1.0 - alpha - half_width, min(1.0, 1.0 - alpha + half_width)
    details, ok = [], True
    for seed, runs in long_walks.items():
        aenb = _coverage_by_third(runs["aenbmimocqr"])
        mimo = _coverage_by_third(runs["mimocqr"])
        assert runs["aenbmimocqr"].n_blocks == 3 * blocks_per_third
        in_band = bool(np.all((low <= aenb) & (aenb <= high)))
        closer = abs(aenb[-1] - (1.0 - alpha)) < abs(mimo[-1] - (1.0 - alpha))
        ok = ok and in_band and closer
        details.append(f"seed {seed}: aenbmimocqr thirds "
                       f"{'/'.join(f'{c:.3f}' for c in aenb)} vs mimocqr "
                       f"{'/'.join(f'{c:.3f}' for c in mimo)}")
    _line(11, ok, f"{'; '.join(details)}; every aenbmimocqr third in "
                  f"[{low:.3f}, {high:.3f}], its last third closer to 0.90")
    assert ok, details


def test_criterion_12_horizon_validity(long_walks):
    """Every forecast step of the adaptive method is valid on its own.

    Each step has one interval per block, 150 in all. z = 3.14 is the
    two-sided 0.05 level with a Bonferroni correction over the 30 steps.
    """
    alpha, n_blocks = 0.1, 150
    half_width = 3.14 * math.sqrt(alpha * (1.0 - alpha) / n_blocks)
    low, high = 1.0 - alpha - half_width, 1.0 - alpha + half_width
    details, ok = [], True
    for seed, runs in long_walks.items():
        result = runs["aenbmimocqr"]
        assert result.n_blocks == n_blocks
        per_step = covered(result.lower, result.upper, result.y).mean(axis=0)
        ok = ok and bool(np.all((low <= per_step) & (per_step <= high)))
        details.append(f"seed {seed}: per-step coverage "
                       f"{per_step.min():.3f}-{per_step.max():.3f}")
    _line(12, ok, f"{'; '.join(details)}; every aenbmimocqr step in "
                  f"[{low:.3f}, {high:.3f}]")
    assert ok, details


def _by_third(values) -> list[np.ndarray]:
    return [chunk.ravel() for chunk in np.split(np.asarray(values), 3)]


def test_criterion_13_heteroscedasticity(long_walks):
    """The adaptive method covers low- and high-noise targets alike, and its
    width follows the oracle's noise level more closely than mimocqr's.

    Within each third, the targets split into terciles of the oracle sigma;
    the lowest and the highest each cover within criterion 11's band. The
    oracle interval's width is proportional to sigma, so the width-oracle
    width correlation is the correlation of width with sigma.
    """
    alpha, blocks_per_third = 0.1, 50
    half_width = 3.0 * math.sqrt(alpha * (1.0 - alpha) / blocks_per_third)
    low, high = 1.0 - alpha - half_width, min(1.0, 1.0 - alpha + half_width)
    details, ok = [], True
    for seed, runs in long_walks.items():
        sigmas = _by_third(runs["sigma"])
        corr = {}
        for method in ("aenbmimocqr", "mimocqr"):
            result = runs[method]
            corr[method] = [float(np.corrcoef(width, sigma)[0, 1]) for width, sigma in
                            zip(_by_third(result.upper - result.lower), sigmas)]
        aenb = runs["aenbmimocqr"]
        terciles = []
        for hits, sigma in zip(_by_third(covered(aenb.lower, aenb.upper, aenb.y)), sigmas):
            rank = np.argsort(np.argsort(sigma))
            terciles.append((hits[rank < sigma.size / 3].mean(),
                             hits[rank >= 2 * sigma.size / 3].mean()))
        cover = np.asarray(terciles)
        in_band = bool(np.all((low <= cover) & (cover <= high)))
        tracks = all(a > m for a, m in zip(corr["aenbmimocqr"], corr["mimocqr"]))
        ok = ok and in_band and tracks
        details.append(
            f"seed {seed}: low/high sigma "
            f"{', '.join(f'{lo:.2f}/{hi:.2f}' for lo, hi in terciles)}, corr "
            f"{'/'.join(f'{c:.2f}' for c in corr['aenbmimocqr'])} vs mimocqr "
            f"{'/'.join(f'{c:.2f}' for c in corr['mimocqr'])}")
    _line(13, ok, f"{'; '.join(details)}; every tercile in [{low:.3f}, {high:.3f}], "
                  f"every third's corr above mimocqr's")
    assert ok, details


def test_criterion_14_ablation(monkeypatch):
    """What each part of the adaptive method buys, on seeds the other long
    walks do not use.

    One trained pair per seed is walked four ways: full; no ACI
    (``gamma_override=0``); frozen windows (``SlidingScoreWindow.push`` a
    no-op) without and with ACI. The sliding windows carry the long-run
    coverage, so both frozen variants under-cover in the last third, while
    ACI moves the whole walk's coverage only a little.
    """
    max_aci_shift, max_frozen_last_third = 0.03, 0.5
    # name -> (windows frozen, gamma_override)
    variants = {"full": (False, None), "no ACI": (False, 0.0),
                "frozen": (True, 0.0), "frozen + ACI": (True, None)}
    details, ok = [], True
    for seed in (3, 4):
        series, _ = gen_synthetic(SyntheticConfig(seed=seed, length=5151))
        train, test = split_train_test(series, 4500)
        ensembles = fit_ensemble(frame_mimo(train, 40, 30), (0.05, 0.95), 10, seed,
                                 TrainConfig(epochs=5))
        overall, thirds = {}, {}
        for name, (frozen, gamma) in variants.items():
            with monkeypatch.context() as patch:
                if frozen:
                    patch.setattr(SlidingScoreWindow, "push", lambda self, scores: None)
                result = run_aenbmimocqr(
                    train, FeedbackStream(test), n_lags=40, horizon=30, alpha=0.1,
                    window_size=100, seed=seed, ensembles=ensembles, gamma_override=gamma)
            overall[name] = float(covered(result.lower, result.upper, result.y).mean())
            thirds[name] = _coverage_by_third(result)
        ok = (ok and abs(overall["full"] - overall["no ACI"]) <= max_aci_shift
              and all(thirds[name][-1] <= max_frozen_last_third
                      for name in ("frozen", "frozen + ACI")))
        details.append(f"seed {seed}: " + ", ".join(
            f"{name} {overall[name]:.3f} ({'/'.join(f'{c:.2f}' for c in thirds[name])})"
            for name in variants))
    _line(14, ok, f"{'; '.join(details)}; |full - no ACI| <= {max_aci_shift}, every "
                  f"frozen last third <= {max_frozen_last_third}")
    assert ok, details
