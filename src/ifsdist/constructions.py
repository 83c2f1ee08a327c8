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

from dataclasses import dataclass

import numpy as np

from .distfn import DistributionFunction, _nonfinite_violation
from .ifs import AffineMap, IfsSystem

__all__ = [
    "QuantileGrid",
    "edf_ifs",
    "quantile_ifs",
    "quantile_estimator",
    "empirical_quantile",
]


@dataclass(frozen=True)
class QuantileGrid:
    """Probability levels and the abscissae where a CDF attains them.

    ``abscissae`` includes the augmented endpoints 0 and 1 and must be
    strictly increasing; ``levels`` are the interior probabilities.
    """

    levels: tuple
    abscissae: tuple

    def __post_init__(self):
        lv = np.asarray(self.levels, float)
        xs = np.asarray(self.abscissae, float)
        if np.any(lv <= 0.0) or np.any(lv >= 1.0) or np.any(np.diff(lv) <= 0.0):
            raise ValueError("levels must be strictly increasing inside (0,1)")
        if xs[0] != 0.0 or xs[-1] != 1.0 or np.any(np.diff(xs) <= 0.0):
            raise ValueError("abscissae must be strictly increasing from 0 to 1")
        if len(xs) != len(lv) + 2:
            raise ValueError("abscissae must be the levels' points plus both endpoints")


def _checked_sample(sample, min_n: int) -> np.ndarray:
    arr = np.sort(np.asarray(list(sample), float))
    if arr.size < min_n:
        raise ValueError(f"need at least {min_n} sample points, got {arr.size}")
    problem = _nonfinite_violation("sample values", arr)
    if problem:
        raise ValueError(problem)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("sample values must lie strictly inside (0,1)")
    return arr


def edf_ifs(sample) -> IfsSystem:
    """Identity-partition system fixing the e.d.f. of a distinct sample.

    On the n+1 cells cut at the sample points, the weights are
    (0, 1/n, ..., 1/n) and the offsets ((n-1)/n^2, -1/n^2, ..., -1/n^2);
    solving u = p_i u + offset_i per cell gives exactly the e.d.f. steps.
    Requires n >= 2 so the system is contractive.
    """
    xs = _checked_sample(sample, min_n=2)
    if np.any(np.diff(xs) == 0.0):
        raise ValueError("sample contains duplicate values")
    n = len(xs)
    cuts = np.concatenate([[0.0], xs, [1.0]])
    maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(n + 1)]
    p = np.concatenate([[0.0], np.full(n, 1.0 / n)])
    delta = np.concatenate([[(n - 1) / n**2], np.full(n - 1, -1.0 / n**2)])
    return IfsSystem(maps, p, delta, identity_partition=True)


def _invert_cdf(f: DistributionFunction, level: float, tol: float = 1e-12) -> float:
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f.eval(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def quantile_ifs(f: DistributionFunction, n_points: int) -> IfsSystem:
    """Contractive system through n_points interior quantiles of a known CDF.

    Levels are i/(n_points+1); each map sends [0,1) affinely onto one
    inter-quantile cell with weight F(x_i) - F(x_{i-1}), so the weights sum
    to one with zero offsets and every iterate passes through (x_i, level_i).
    F must be continuous and strictly increasing.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    m = n_points
    levels = np.arange(1, m + 1) / (m + 1)
    xs = np.array([_invert_cdf(f, u) for u in levels])
    cuts = np.concatenate([[0.0], xs, [1.0]])
    if np.any(np.diff(cuts) <= 0.0):
        raise ValueError(
            "quantiles are not strictly increasing; F must be strictly increasing on [0,1]"
        )
    fvals = np.concatenate([[0.0], f.eval_array(xs), [1.0]])
    residual = np.max(np.abs(fvals[1:-1] - levels)) if m else 0.0
    if residual > 1e-9:
        raise ValueError(f"quantile solve failed: |F(x_i) - u_i| up to {residual}")
    p = np.diff(fvals)
    maps = [
        AffineMap.from_intervals((0.0, 1.0), (cuts[i], cuts[i + 1]))
        for i in range(m + 1)
    ]
    return IfsSystem(maps, p, np.zeros(m), identity_partition=False)


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
    (see :func:`_order_ranks` for the rounding rule)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"quantile level {level} outside (0,1)")
    arr = np.sort(np.asarray(list(sample), float))
    if arr.size == 0:
        raise ValueError("sample is empty")
    return float(arr[_order_ranks(level, arr.size) - 1])


def quantile_estimator(sample, k: int) -> IfsSystem:
    """Contractive system through the sample's empirical quantiles of order i/k.

    Cells are cut at q_1, ..., q_{k-1} (augmented by q_0 = 0, q_k = 1) with
    weight 1/k each; its fixed point passes through (q_i, i/k).  Coincident
    quantiles merge into a single cell carrying the summed weight.
    Requires 2 <= k < n.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    arr = _checked_sample(sample, min_n=2)
    n = len(arr)
    if k >= n:
        raise ValueError(f"k = {k} must be smaller than the sample size {n}")
    qs = arr[_order_ranks(np.arange(1, k) / k, n) - 1]
    cuts = np.concatenate([[0.0], qs, [1.0]])
    weights = np.full(k, 1.0 / k)
    merged_cuts = [0.0]
    merged_w = []
    acc = 0.0
    for i in range(k):
        acc += weights[i]
        if cuts[i + 1] > merged_cuts[-1]:
            merged_cuts.append(float(cuts[i + 1]))
            merged_w.append(acc)
            acc = 0.0
    if acc:  # trailing degenerate cells cannot occur for samples inside (0,1)
        merged_w[-1] += acc
    maps = [
        AffineMap.from_intervals((0.0, 1.0), (merged_cuts[i], merged_cuts[i + 1]))
        for i in range(len(merged_w))
    ]
    return IfsSystem(maps, np.asarray(merged_w), np.zeros(len(merged_w) - 1),
                     identity_partition=False)
