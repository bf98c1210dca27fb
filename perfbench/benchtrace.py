"""Span tracing for a traced ``conformalts run``, kept outside the package.

The benchmark starts a traced backtest as

    python3 -c "import sys, benchtrace; sys.exit(benchtrace.main(sys.argv[1:]))" run ...

with this directory on PYTHONPATH and two environment variables:
``PERFBENCH_TRACE_DIR`` (where span files go) and ``PERFBENCH_RUN_ID`` (the
run id stamped on every span file of the invocation). ``main`` wraps the
public names of each package module as their callers look them up, runs
``conformalts.cli.main`` and writes the process's spans. The benchmark runs
every invocation with ``--workers 1``, so every span is recorded in that one
process.

A span is (name, parent, start_ns, end_ns, n, m, ok): ``parent`` is the
row of the enclosing span in the same file or -1, ``n`` and ``m`` are work
counts taken from the call (rows, scores, intervals; see ``_TARGETS``) and
``ok`` is 0 when the call raised.
Spans stay in memory until the process writes its file. Timed benchmark runs
never import this module.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter_ns

import numpy as np

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"

# span name table of the process
_NAMES: list[str] = []
_NAME_IDS: dict[str, int] = {}


def _name_id(name: str) -> int:
    if name not in _NAME_IDS:
        _NAME_IDS[name] = len(_NAMES)
        _NAMES.append(name)
    return _NAME_IDS[name]


class Tracer:
    """Spans of one process, in call order, in one flat int64 buffer.

    Span k occupies ``buf[7k:7k+7]`` = [name id, parent offset, start ns,
    end ns, n, m, ok]; ``current`` is the offset of the innermost open span,
    or -1. The flat buffer keeps the per-call cost and memory low: the walk
    of a long series makes a few hundred thousand calls.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.buf = array("q")
        self.current = -1
        self._files = 0

    def begin(self, name_id: int) -> int:
        i = len(self.buf)
        self.buf.extend((name_id, self.current, perf_counter_ns(), 0, 0, 0, 0))
        self.current = i
        return i

    def finish(self, i: int, ok: bool = True) -> None:
        self.buf[i + 3] = perf_counter_ns()
        self.buf[i + 6] = int(ok)
        self.current = self.buf[i + 1]

    def write(self, directory: str, run_id: str) -> str:
        """Write the spans recorded so far to one .npz file and forget them."""
        if self.current != -1:
            raise RuntimeError("a span is still open")
        self._files += 1
        path = os.path.join(directory, f"{run_id}.{self.pid}.{self._files}.npz")
        table = np.frombuffer(self.buf, dtype=np.int64).reshape(-1, 7).copy()
        table[:, 1] = np.where(table[:, 1] >= 0, table[:, 1] // 7, -1)
        np.savez(path, run_id=np.array(run_id), pid=np.array(self.pid),
                 names=np.array(_NAMES, dtype=str), spans=table)
        self.buf = array("q")
        return path


_tracer = Tracer()
_original_series_job = None


def _wrap(fn, name: str, pre=None, post=None, skip_under=None):
    """Wrap ``fn`` so every call records one span named ``name``.

    ``pre(*args, **kwargs)`` gives the span's (n, m) from the arguments;
    ``post(result)`` gives n from the result instead. A call made directly
    inside a span named ``skip_under`` records nothing: its time stays in
    that span's self time.
    """
    blank = array("q", [_name_id(name), 0, 0, 0, 0, 0, 0])
    skip_id = -1 if skip_under is None else _name_id(skip_under)

    def traced(*args, **kwargs):
        tr = _tracer
        buf = tr.buf
        parent = tr.current
        if parent >= 0 and buf[parent] == skip_id:
            return fn(*args, **kwargs)
        i = len(buf)
        buf.extend(blank)
        buf[i + 1] = parent
        if pre is not None:
            buf[i + 4], buf[i + 5] = pre(*args, **kwargs)
        tr.current = i
        buf[i + 2] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            buf[i + 3] = perf_counter_ns()
            tr.current = parent
        buf[i + 6] = 1
        if post is not None:
            buf[i + 4] = post(result)
        return result

    return functools.wraps(fn)(traced)


def _frame_rows(frame):
    return frame.n_rows


def _train_counts(frame, *args, **kwargs):
    return frame.n_rows, frame.horizon


def _rows_of(_self, X):
    return len(X), 0


def _one_row(_self, x):
    return 1, 0


def _size_of(scores, *args, **kwargs):
    return int(np.size(scores)), 0


def _len_first(values, *args, **kwargs):
    return len(values), 0


def _horizon_arg(_predict, _window, horizon):
    return int(horizon), 0


def _synthetic_length(config):
    return int(config.length), 0


# (module whose namespace the caller reads, attribute, span name, pre, post[,
# skip_under]). A dotted attribute is a method, patched on its class. A span
# name is "<layer>.<function>", the layer being the module that defines the
# function.
_TARGETS = [
    ("cli", "gen_synthetic", "data.gen_synthetic", _synthetic_length, None),
    ("pipelines", "frame_mimo", "framing.frame_mimo", None, _frame_rows),
    ("pipelines", "frame_recursive", "framing.frame_recursive", None, _frame_rows),
    ("pipelines", "recursive_forecast", "framing.recursive_forecast", _horizon_arg, None),
    ("framing", "PredictionInterval.__post_init__", "framing.interval", None, None),
    ("pipelines", "train", "quantile_net.train", _train_counts, None),
    ("pipelines", "mse_train", "quantile_net.mse_train", _train_counts, None),
    # One span per forward pass, named alike: predict() runs its one row through
    # predict_batch, so a predict_batch call inside predict() adds no span and
    # its time counts as predict()'s own.
    ("quantile_net", "QuantileNet.predict", "quantile_net.predict", _one_row, None),
    ("quantile_net", "QuantileNet.predict_batch", "quantile_net.predict", _rows_of, None,
     "quantile_net.predict"),
    ("pipelines", "fit_ensemble", "pipelines.fit_ensemble", None, None),
    ("pipelines", "oob_predict", "pipelines.oob_predict", None, None),
    ("pipelines", "BootstrapEnsemble.predict_mean", "pipelines.predict_mean", None, None),
    ("pipelines", "BootstrapEnsemble.predict_mean_batch", "pipelines.predict_mean_batch",
     None, None),
    ("pipelines", "FeedbackStream.submit", "pipelines.submit", None, None),
    ("cli", "run_aenbmimocqr", "pipelines.run_aenbmimocqr", None, None),
    ("cli", "run_mimocqr", "pipelines.run_mimocqr", None, None),
    ("cli", "run_enbpi", "pipelines.run_enbpi", None, None),
    ("cli", "run_enbcqr", "pipelines.run_enbcqr", None, None),
    ("pipelines", "aci_update", "adaptive.aci_update", None, None),
    ("pipelines", "sample_without_replacement", "adaptive.sample_without_replacement",
     _size_of, None),
    ("adaptive", "SlidingScoreWindow.push", "adaptive.window_push", None, None),
    ("adaptive", "SlidingScoreWindow.values", "adaptive.window_values", None, None),
    ("pipelines", "conformal_quantile", "conformal.conformal_quantile", _size_of, None),
    ("pipelines", "cqr_interval", "conformal.cqr_interval", None, None),
    ("cli", "evaluate", "metrics.evaluate", _len_first, None),
    ("cli", "aggregate_star", "metrics.aggregate_star", None, None),
    ("cli", "cmd_run", "cli.cmd_run", None, None),
]


def _install_wrappers() -> None:
    """Patch the package's public names where their callers look them up."""
    global _original_series_job
    cli = importlib.import_module("conformalts.cli")
    for module_name, attr, name, *hooks in _TARGETS:
        module = importlib.import_module(f"conformalts.{module_name}")
        owner, _, method = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            setattr(cls, method, _wrap(cls.__dict__[method], name, *hooks))
        else:
            setattr(module, attr, _wrap(getattr(module, attr), name, *hooks))
    _original_series_job = cli._series_job
    cli._series_job = traced_series_job


def traced_series_job(payload: dict) -> dict:
    """``conformalts.cli._series_job`` under a span."""
    span = _tracer.begin(_name_id("cli.series_job"))
    ok = False
    try:
        outcome = _original_series_job(payload)
        ok = True
    finally:
        _tracer.finish(span, ok)
    return outcome


def main(argv: list[str]) -> int:
    """Run ``conformalts`` with the given arguments under the tracer."""
    directory = os.environ[TRACE_DIR_ENV]
    run_id = os.environ[RUN_ID_ENV]
    _install_wrappers()
    cli = importlib.import_module("conformalts.cli")
    tr = _tracer
    span = tr.begin(_name_id("cli.main"))
    code = 1
    try:
        code = cli.main(argv)
    finally:
        tr.finish(span, code == 0)
        tr.write(directory, run_id)
    return code
