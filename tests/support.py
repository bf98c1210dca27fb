"""Shared builders for pipeline tests: deterministic stand-in predictors.

An injected member is a QuantileNet from a lag window (length p) to a
length-H prediction, which is what the ensembles and runners accept. Each
builder here is a one-layer net, an affine map of the lag window: seeded
random coefficients give varied, reproducible predictors without any
training, and zero weights give constants and exact lag echoes. The
oracles call these members through ``predict``.
"""

import numpy as np

from conformalts.quantile_net import QuantileNet


def make_affine_member(p, H, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(scale=scale, size=(H, p))
    b = rng.normal(scale=scale, size=H)
    return QuantileNet([A.T.copy()], [b], None)


def make_affine_members(n_members, p, H, seed, scale=1.0):
    return [make_affine_member(p, H, seed * 1000 + i, scale) for i in range(n_members)]


def make_constant_member(values, p=1):
    """A net that returns ``values`` at every window of length p."""
    values = np.asarray(values, dtype=float)
    return QuantileNet([np.zeros((p, values.size))], [values], None)


def make_lag_member(p, offsets):
    """A net that returns ``x[-1] + offsets`` exactly: its only nonzero
    weight is 1 on the last lag, and adding zero products is exact."""
    offsets = np.asarray(offsets, dtype=float)
    W = np.zeros((p, offsets.size))
    W[-1] = 1.0
    return QuantileNet([W], [offsets], None)


def random_index_sets(n_members, n_rows, rng):
    return [rng.integers(0, n_rows, size=n_rows) for _ in range(n_members)]
