"""Metamorphic invariants of the whole pipeline, checked bit for bit.

- Scale: multiplying the training and test values by 2^k multiplies every
  bound by 2^k. Power-of-two scaling commutes with rounding, and the
  training standardization, the fold back into original units, the scores,
  the quantiles and the coverage hits all carry it through.
- Causality: changing one test value leaves every block before it, and the
  block that holds it, unchanged. The FeedbackStream audit checks the call
  order; this checks the result, so it would also catch a leak around the
  stream.
- Series independence: a series' intervals do not depend on the other
  series of the file, their order or the CSV layout.

An additive shift is left out: subtracting the mean rounds, so it is not
bit-exact.
"""

import csv

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conformalts import pipelines
from conformalts.cli import main
from conformalts.framing import TimeSeries
from conformalts.pipelines import FeedbackStream
from conformalts.quantile_net import TrainConfig

METHODS = ("aenbmimocqr", "mimocqr", "enbpi", "enbcqr")
EXAMPLES = settings(max_examples=24, derandomize=True)


@st.composite
def backtests(draw):
    """A small backtest: a runner, its shape, its training and its series."""
    method = draw(st.sampled_from(METHODS))
    p, H = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    n_blocks = draw(st.integers(2, 4))
    config = TrainConfig(epochs=draw(st.integers(2, 3)),
                         hidden=tuple(draw(st.lists(st.integers(2, 8), min_size=1, max_size=2))))
    keywords = dict(n_lags=p, horizon=H, alpha=0.2, seed=draw(st.integers(0, 9)), config=config)
    if method != "mimocqr":
        keywords["n_models"] = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.normal(size=24 + p + H + n_blocks * H).cumsum()
    return method, keywords, values, n_blocks * H


def backtest(method, keywords, values, n_test):
    run = getattr(pipelines, f"run_{method}")
    return run(TimeSeries(values[:-n_test]), FeedbackStream(values[-n_test:]), **keywords)


@EXAMPLES
@given(backtests(), st.integers(-3, 3))
def test_scaling_by_a_power_of_two_scales_every_bound(case, k):
    method, keywords, values, n_test = case
    base = backtest(method, keywords, values, n_test)
    scaled = backtest(method, keywords, values * 2.0**k, n_test)
    assert np.array_equal(scaled.lower, base.lower * 2.0**k)
    assert np.array_equal(scaled.upper, base.upper * 2.0**k)


@EXAMPLES
@given(backtests(), st.data())
def test_a_changed_test_value_leaves_its_block_and_earlier_ones_alone(case, data):
    method, keywords, values, n_test = case
    offset = data.draw(st.integers(0, n_test - 1))
    changed = values.copy()
    changed[len(values) - n_test + offset] += data.draw(st.sampled_from([-50.0, 50.0]))
    base = backtest(method, keywords, values, n_test)
    other = backtest(method, keywords, changed, n_test)
    last = offset // keywords["horizon"] + 1  # blocks before it, and its own
    assert np.array_equal(other.lower[:last], base.lower[:last])
    assert np.array_equal(other.upper[:last], base.upper[:last])


def intervals_by_series(out):
    with open(out / "intervals.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    grouped = {}
    for row in rows[1:]:
        grouped.setdefault(row[0], []).append(row)
    return grouped


def test_each_series_gets_the_same_intervals_in_any_file(tmp_path):
    columns = {}
    for seed in (1, 2):
        path = tmp_path / f"s{seed}.csv"
        assert main(["synth", "--seed", str(seed), "--out", str(path)]) == 0
        name, *cells = path.read_text(encoding="utf-8").splitlines()
        columns[name] = cells
    (a, a_cells), (b, b_cells) = columns.items()
    # the header says the layout: id,t,value is long, any other is wide
    files = {
        "wide": [f"{a},{b}"] + [f"{x},{y}" for x, y in zip(a_cells, b_cells)],
        "swapped": [f"{b},{a}"] + [f"{y},{x}" for x, y in zip(a_cells, b_cells)],
        "long": ["id,t,value"] + [f"{sid},{t},{cell}" for sid in (b, a)
                                  for t, cell in enumerate(columns[sid])],
    }
    runs = {}
    for label, lines in files.items():
        data = tmp_path / f"{label}.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / label
        assert main(["run", "--data", str(data), "--method", "enbpi",
                     "--epochs", "2", "--workers", "1", "--out", str(out)]) == 0
        runs[label] = intervals_by_series(out)
    assert sorted(runs["wide"]) == sorted([a, b])
    for label in ("swapped", "long"):
        assert runs[label] == runs["wide"], label
