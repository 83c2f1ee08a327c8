"""Shared generators for randomized property tests.

All randomness is driven by numpy Generators seeded per test, so every run
checks the same cases.
"""

import numpy as np

from ifsdist import AffineMap, GridDF, IfsSystem, collage_distance


def random_cuts(rng, k):
    """k+1 strictly increasing cut points from 0 to 1."""
    inner = np.sort(rng.uniform(0.03, 0.97, size=k - 1))
    while np.any(np.diff(inner) < 1e-3):
        inner = np.sort(rng.uniform(0.03, 0.97, size=k - 1))
    return np.concatenate([[0.0], inner, [1.0]])


def random_identity_system(rng, k_range=(2, 8), negative_delta=False, c_max=0.95):
    """Random valid identity-partition system, contractivity below c_max."""
    for _ in range(200):
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        cuts = random_cuts(rng, k)
        maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(k)]
        raw = rng.random(k) + 0.05
        p_hat = raw / raw.sum()
        if negative_delta and k >= 2:
            theta = rng.random(k - 1) * 0.9
            delta = -theta * np.minimum(p_hat[:-1], p_hat[1:])
            p = p_hat * (1.0 - delta.sum())
        else:
            raw_d = rng.random(k - 1) * rng.uniform(0.0, 0.5)
            total = raw.sum() + raw_d.sum()
            p = raw / total
            delta = raw_d / total
        system = IfsSystem(maps, p, delta)
        if system.violations():
            continue
        if np.max(p) < c_max:
            return system
    raise RuntimeError("failed to draw a valid identity system")


def random_contractive_system(rng, k_range=(2, 8), c_max=0.95):
    """Random valid system with affine maps from [0,1) onto partition cells."""
    for _ in range(200):
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        cuts = random_cuts(rng, k)
        maps = [
            AffineMap.from_intervals((0.0, 1.0), (cuts[i], cuts[i + 1]))
            for i in range(k)
        ]
        raw_p = rng.random(k) + 0.05
        raw_d = rng.random(k - 1) * rng.uniform(0.0, 0.5)
        total = raw_p.sum() + raw_d.sum()
        system = IfsSystem(maps, raw_p / total, raw_d / total)
        if system.violations():
            continue
        if np.max(system.p) < c_max:
            return system
    raise RuntimeError("failed to draw a valid contractive system")


def random_step_df(rng, max_jumps=8):
    """Random step distribution function with exactly known breakpoints."""
    m = int(rng.integers(1, max_jumps + 1))
    bps = np.unique(rng.uniform(0.02, 0.98, size=m))
    vals = np.sort(rng.uniform(0.0, 1.0, size=len(bps)))
    grid = np.concatenate([[0.0], bps, [1.0]])
    values = np.concatenate([[0.0], vals, [1.0]])
    return GridDF(grid, values, mode="step")


def random_linear_df(rng, max_kinks=8):
    """Random continuous piecewise-linear distribution function."""
    m = int(rng.integers(1, max_kinks + 1))
    bps = np.unique(rng.uniform(0.02, 0.98, size=m))
    vals = np.sort(rng.uniform(0.0, 1.0, size=len(bps)))
    grid = np.concatenate([[0.0], bps, [1.0]])
    values = np.concatenate([[0.0], vals, [1.0]])
    return GridDF(grid, values, mode="linear")


def convexity_witness(problem, p1, p2, lam):
    """(D(lam*p1 + (1-lam)*p2), lam*D(p1) + (1-lam)*D(p2)) for convexity checks."""
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    if p1.shape != p2.shape:
        raise ValueError("weight vectors must have equal length")
    lhs = collage_distance(problem, lam * p1 + (1.0 - lam) * p2)
    rhs = lam * collage_distance(problem, p1) + (1.0 - lam) * collage_distance(problem, p2)
    return lhs, rhs


def constraint_rows(problem):
    """(A, b) with residuals(p) = A p + b, rebuilt from the residuals alone."""
    b = problem.residuals(np.zeros(problem.k))
    a = np.column_stack([problem.residuals(e) - b for e in np.eye(problem.k)])
    return a, b
