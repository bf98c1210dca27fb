"""Per-layer metrics from the span files of one traced pass.

A layer is a package module. Each span file holds the spans of one
``conformalts run`` invocation (see ``benchtrace``), which runs in one process
because the benchmark passes ``--workers 1``. A span's self time
is its duration minus the durations of its direct children.

Time metrics are self times unless marked inclusive below, so the self-time
metrics of a pass add up to at most its traced wall time:

- ``quantile_net.train_s``   train + mse_train (they have no traced children)
- ``quantile_net.predict_s`` forward passes: QuantileNet.predict, with the
                             predict_batch call inside it, and predict_batch
                             calls made elsewhere
- ``pipelines.fit_ensemble_s``, ``pipelines.oob_predict_s``  inclusive
- ``pipelines.walk_s``       self time of pipelines code in the walk: the
                             run_* bodies, BootstrapEnsemble.predict_mean and
                             FeedbackStream.submit; fitting, OOB scoring and
                             calls into other modules are not counted
- ``cli.self_s``             cli.main, cmd_run and series jobs

``quantile_net.gflop`` is computed, not measured: the matmul floating-point
operations of training, from the layer sizes and the frame rows (see
``train_gflop``).

The names and units of the metrics are BENCHMARK.json's ``per_layer`` list;
``layer_metrics`` gives every one of them but ``trace.untraced_wall_s``,
``trace.overhead_s`` and ``host.matmul_gflop_per_s``, which ``run.py`` adds
from the plain passes and the speed probe.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def train_gflop(rows: int, n_outputs: int, n_lags: int, hidden, epochs: int) -> float:
    """Matmul GFLOP of training one net, counted from the layer sizes.

    With layer widths d_0 = n_lags, d_1..d_{L-1} = hidden, d_L = n_outputs,
    n = rows and S = sum_k d_k d_{k+1}, one loss-and-gradient evaluation
    costs 2nS (forward) + 2nS (weight gradients) + 2n(S - d_0 d_1) (deltas
    back through every layer but the first) = 6nS - 2n d_0 d_1 flops, a
    multiply-add counting as two. Training makes epochs + 1 evaluations (the
    last one scores the final parameters). Elementwise work, bias sums and
    the Adam update are not counted.
    """
    d = [n_lags, *hidden, n_outputs]
    s = sum(a * b for a, b in zip(d[:-1], d[1:]))
    per_eval = 6 * rows * s - 2 * rows * d[0] * d[1]
    return (epochs + 1) * per_eval / 1e9


class SpanTable:
    """Totals per span name over a set of span files."""

    def __init__(self, paths):
        self.count = defaultdict(int)
        self.total = defaultdict(float)  # inclusive seconds
        self.self_s = defaultdict(float)
        self.n = defaultdict(int)
        self.failed = defaultdict(int)
        self.train = []  # (rows, outputs) per trained net
        self.train_in_fit = 0.0  # seconds of training called by fit_ensemble
        self.main_starts = []  # cli.main span starts, seconds on the monotonic clock
        for path in paths:
            with np.load(path) as z:
                self._add(z)

    def _add(self, z) -> None:
        names = [str(s) for s in z["names"]]
        spans = z["spans"]
        name_idx, parent, start, end, n, m, ok = spans.T
        dur = (end - start).astype(float) / 1e9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        fit = names.index("pipelines.fit_ensemble") if "pipelines.fit_ensemble" in names else -1
        for k, name in enumerate(names):
            sel = name_idx == k
            if not np.any(sel):
                continue
            self.count[name] += int(sel.sum())
            self.total[name] += float(dur[sel].sum())
            self.self_s[name] += float(own[sel].sum())
            self.n[name] += int(n[sel].sum())
            self.failed[name] += int((ok[sel] == 0).sum())
            if name in ("quantile_net.train", "quantile_net.mse_train"):
                self.train.extend(zip(n[sel].tolist(), m[sel].tolist()))
                in_fit = sel & has_parent & (name_idx[np.maximum(parent, 0)] == fit)
                self.train_in_fit += float(dur[in_fit].sum())
            if name == "cli.main":
                self.main_starts.extend((start[sel] / 1e9).tolist())


def layer_metrics(paths, *, n_lags: int, hidden, epochs: int, launches, walls,
                  output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its span files ``paths``.

    ``launches`` and ``walls`` give each invocation's launch time (monotonic
    seconds) and wall time, in the order the invocations ran.
    """
    t = SpanTable(paths)
    c, tot, own = t.count, t.total, t.self_s

    def self_sum(*names):
        return sum(own[x] for x in names)

    nets = c["quantile_net.train"] + c["quantile_net.mse_train"]
    train_s = tot["quantile_net.train"] + tot["quantile_net.mse_train"]
    gflop = sum(train_gflop(r, o, n_lags, hidden, epochs) for r, o in t.train)
    blocks = c["pipelines.submit"]
    walk_s = self_sum("pipelines.run_aenbmimocqr", "pipelines.run_mimocqr",
                  "pipelines.run_enbpi", "pipelines.run_enbcqr", "pipelines.submit",
                  "pipelines.predict_mean", "pipelines.predict_mean_batch")
    fit_s = tot["pipelines.fit_ensemble"]
    wall = sum(walls)
    starts = sorted(t.main_starts)
    return {
        "quantile_net.nets_trained": nets,
        "quantile_net.net_epochs": nets * epochs,
        "quantile_net.train_s": train_s,
        "quantile_net.ms_per_net_epoch": 1e3 * train_s / (nets * epochs) if nets else 0.0,
        "quantile_net.gflop": gflop,
        "quantile_net.gflop_per_s": gflop / train_s if train_s else 0.0,
        "quantile_net.predict_calls": c["quantile_net.predict"],
        "quantile_net.predict_rows": t.n["quantile_net.predict"],
        "quantile_net.predict_s": own["quantile_net.predict"],
        "pipelines.fit_ensemble_s": fit_s,
        "pipelines.fit_overlap": t.train_in_fit / fit_s if fit_s else 0.0,
        "pipelines.oob_predict_s": tot["pipelines.oob_predict"],
        "pipelines.walk_s": walk_s,
        "pipelines.blocks": blocks,
        "pipelines.walk_ms_per_block": 1e3 * walk_s / blocks if blocks else 0.0,
        "pipelines.predict_mean_calls": c["pipelines.predict_mean"] + c["pipelines.predict_mean_batch"],
        "pipelines.predict_mean_s": self_sum("pipelines.predict_mean", "pipelines.predict_mean_batch"),
        "adaptive.aci_updates": c["adaptive.aci_update"],
        "adaptive.aci_update_s": own["adaptive.aci_update"],
        "adaptive.window_pushes": c["adaptive.window_push"],
        "adaptive.window_s": self_sum("adaptive.window_push", "adaptive.window_values",
                                  "adaptive.sample_without_replacement"),
        "conformal.quantile_calls": c["conformal.conformal_quantile"],
        "conformal.scores_ranked": t.n["conformal.conformal_quantile"],
        "conformal.quantile_s": own["conformal.conformal_quantile"],
        "conformal.cqr_intervals": c["conformal.cqr_interval"],
        "conformal.cqr_interval_s": own["conformal.cqr_interval"],
        "framing.frame_s": self_sum("framing.frame_mimo", "framing.frame_recursive"),
        "framing.rows_framed": t.n["framing.frame_mimo"] + t.n["framing.frame_recursive"],
        "framing.recursive_steps": t.n["framing.recursive_forecast"],
        "framing.recursive_forecast_s": own["framing.recursive_forecast"],
        "framing.intervals_constructed": c["framing.interval"],
        "framing.interval_s": own["framing.interval"],
        "metrics.evaluate_s": tot["metrics.evaluate"] + tot["metrics.aggregate_star"],
        "metrics.intervals_scored": t.n["metrics.evaluate"],
        "data.gen_synthetic_s": own["data.gen_synthetic"],
        "cli.series_jobs": c["cli.series_job"],
        "cli.series_failed": t.failed["cli.series_job"],
        "cli.self_s": self_sum("cli.main", "cli.cmd_run", "cli.series_job"),
        "cli.output_bytes": output_bytes,
        "cli.busy_frac": tot["cli.series_job"] / wall,
        "cli.process_start_s": sum(s - l for s, l in zip(starts, sorted(launches))),
        "trace.traced_wall_s": wall,
    }

