"""Concrete IFS constructions for distribution functions.

Three builders:

- :func:`edf_ifs` -- identity-partition system whose fixed point is exactly
  the empirical distribution function of a sample (weights 1/n except a
  zero first weight; one positive and n-1 small negative offsets);
- :func:`quantile_ifs` -- contractive system through the quantiles of a
  known continuous CDF, whose every iterate interpolates F there;
- :func:`quantile_estimator` -- the same construction on empirical
  quantiles of a sample, an estimator of the unknown CDF.
"""

from __future__ import annotations

import numpy as np

from .distfn import DistributionFunction, _checked_sample, _require_integer, edf_from_sample
from .ifs import IfsSystem, _MapTable

__all__ = [
    "edf_ifs",
    "quantile_ifs",
    "quantile_estimator",
    "empirical_quantile",
]


def edf_ifs(sample) -> IfsSystem:
    """Identity-partition system fixing the e.d.f. of a distinct sample.

    On the n+1 cells cut at the sample points, the weights are
    (0, 1/n, ..., 1/n) and the offsets ((n-1)/n^2, -1/n^2, ..., -1/n^2);
    solving u = p_i u + offset_i per cell gives exactly the e.d.f. steps.
    Requires n >= 2 so the system is contractive.
    """
    cuts = edf_from_sample(sample).grid
    n = len(cuts) - 2
    if n < 2:
        raise ValueError(f"need at least 2 sample points, got {n}")
    p = np.concatenate([[0.0], np.full(n, 1.0 / n)])
    delta = np.concatenate([[(n - 1) / n**2], np.full(n - 1, -1.0 / n**2)])
    return IfsSystem(_MapTable.on_cells(cuts, identity=True), p, delta)


def _invert_cdf(f: DistributionFunction, levels: np.ndarray):
    """Bisection for F(x) = level on [0,1], all levels at once; returns x and F(x).

    Every lane makes the test F(mid) < level of a scalar bisection, and all
    brackets halve together until they are at most 1e-12 wide.  A lane
    whose midpoint then misses its level by more than 1e-9 (F steep next to
    0 or 1) halves on until it meets the level or the midpoint is an end of
    its bracket: then no double lies closer to where F crosses the level.
    """
    lo, hi = np.zeros(len(levels)), np.ones(len(levels))
    x, fx = 0.5 * (lo + hi), np.empty(len(levels))
    lane = np.arange(len(levels))
    while lane.size:
        fx[lane] = f.eval_array(x[lane])
        misses = ((np.abs(fx[lane] - levels[lane]) > 1e-9)
                  & (x[lane] > lo[lane]) & (x[lane] < hi[lane]))
        lane = lane[(hi[lane] - lo[lane] > 1e-12) | misses]
        below = fx[lane] < levels[lane]
        lo[lane] = np.where(below, x[lane], lo[lane])
        hi[lane] = np.where(below, hi[lane], x[lane])
        x[lane] = 0.5 * (lo[lane] + hi[lane])
    return x, fx


def quantile_ifs(f: DistributionFunction, n_points: int) -> IfsSystem:
    """Contractive system through n_points interior quantiles of a known CDF.

    Levels are i/(n_points+1); each map sends [0,1) affinely onto one
    inter-quantile cell with weight F(x_i) - F(x_{i-1}), so the weights sum
    to one with zero offsets and every iterate passes through (x_i, F(x_i)).
    F(x_i) is level_i to within 1e-9 unless no double x comes that close
    (F steep next to 0 or 1).  F must be continuous and strictly increasing;
    a level that F's left limits show to lie inside a jump is an error.
    """
    m = _require_integer("n_points", n_points)
    if m < 1:
        raise ValueError("n_points must be >= 1")
    levels = np.arange(1, m + 1) / (m + 1)
    xs, fx = _invert_cdf(f, levels)
    cuts = np.concatenate([[0.0], xs, [1.0]])
    if np.any(np.diff(cuts) <= 0.0):
        raise ValueError(
            "quantiles are not strictly increasing; F must be strictly increasing on [0,1]"
        )
    # at a miss, F crosses the level between x_i and its neighbour: at the
    # first double where F reaches it, the left limit tells a jump from a slope
    first = np.where(fx >= levels, xs, np.nextafter(xs, 1.0))
    residual = np.abs(fx - levels)
    if np.any((residual > 1e-9) & (f.eval_left_array(first) < levels)):
        raise ValueError(f"quantile solve failed: |F(x_i) - u_i| up to {residual.max()}")
    p = np.diff(np.concatenate([[0.0], fx, [1.0]]))
    return IfsSystem(_MapTable.on_cells(cuts, identity=False), p, np.zeros(m))


def _order_ranks(levels, n: int) -> np.ndarray:
    """1-based ranks ceil(level*n) of the order statistics at ``levels``.

    Ranks within 1e-12 of an exact integer are treated as that integer, so
    levels like i/k with i*n/k integral pick the intended order statistic
    despite float rounding; ranks are clamped to [1, n].
    """
    ranks = np.ceil(np.asarray(levels, float) * n - 1e-12)
    return np.clip(ranks, 1, n).astype(int)


def empirical_quantile(sample, level: float) -> float:
    """Left-continuous empirical quantile: the ceil(level*n)-th order statistic
    (see :func:`_order_ranks` for the rounding rule) of a non-empty, finite
    sample strictly inside (0,1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"quantile level {level} outside (0,1)")
    arr = _checked_sample(sample)
    return float(arr[_order_ranks(level, arr.size) - 1])


def quantile_estimator(sample, k: int) -> IfsSystem:
    """Contractive system through the sample's empirical quantiles of order i/k.

    Cells are cut at q_1, ..., q_{k-1} (augmented by q_0 = 0, q_k = 1) with
    weight 1/k each; its fixed point passes through (q_i, i/k).  Coincident
    quantiles merge into a single cell carrying the summed weight.
    Requires 2 <= k < n.
    """
    k = _require_integer("k", k)
    if k < 2:
        raise ValueError("k must be >= 2")
    arr = _checked_sample(sample)
    n = len(arr)
    if k >= n:
        raise ValueError(f"k = {k} must be smaller than the sample size {n}")
    qs = arr[_order_ranks(np.arange(1, k) / k, n) - 1]
    cuts = np.concatenate([[0.0], qs, [1.0]])
    # a run of r cells that share a cut merges into one whose weight is the
    # running sum of r weights 1/k; the last cut, 1, is above every quantile
    closes = np.flatnonzero(cuts[1:] > cuts[:-1])
    runs = np.diff(closes, prepend=-1)
    weights = np.cumsum(np.full(k, 1.0 / k))[runs - 1]
    merged_cuts = np.concatenate([[0.0], cuts[1:][closes]])
    return IfsSystem(_MapTable.on_cells(merged_cuts, identity=False), weights,
                     np.zeros(len(weights) - 1))
