"""Shared generators for randomized property tests, and the reference
oracles of the Beta CDF and quantile.

All randomness is driven by numpy Generators seeded per test, so every run
checks the same cases.
"""

from math import lgamma

import numpy as np

from ifsdist import AffineMap, GridDF, IfsSystem, collage_distance
from ifsdist.ifs import _MapTable


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


def reference_image_breakpoints(table, u0, depth):
    """The breakpoint walk with np.unique over every image after every step,
    the reference of ``ifs._image_breakpoints``."""
    boundary = np.unique(np.concatenate([table.starts, table.ends]))
    bps = np.asarray(u0.breakpoints(), float)
    for _ in range(depth):
        bps = np.unique(np.concatenate([boundary, table.images(bps)]))
        if bps.size > 4096:
            keep = np.linspace(0, bps.size - 1, 4096).astype(int)
            bps = np.unique(np.concatenate([bps[keep], boundary]))
    return bps[(bps > 0.0) & (bps < 1.0)]


def map_table(cuts, a, b, overlap=0.0):
    """Maps from the sources [a_i, b_i) onto the cells of ``cuts``; each target
    but the last ends ``overlap_i`` past the next one's start."""
    c, d = cuts[:-1], cuts[1:].copy()
    d[:-1] += overlap
    slope = (d - c) / (b - a)
    return _MapTable(a, b, slope, c - slope * a)


def random_table(rng, k, overlap=0.0):
    """Valid maps onto random cells from random sources; each target but the
    last overhangs the next one's start by up to ``overlap``."""
    cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, k - 1)), [1.0]])
    a = np.where(rng.random(k) < 0.5, 0.0, rng.uniform(0.0, 0.3, k))
    b = np.where(rng.random(k) < 0.5, 1.0, rng.uniform(0.7, 1.0, k))
    a[0], b[-1] = 0.0, 1.0
    return map_table(cuts, a, b, rng.uniform(0.0, overlap, k - 1))


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


# Reference oracles: the continued fraction with per-lane masking and the
# plain 60-step bisection that the library's quantile must reproduce bit for
# bit.


def reference_beta_cf(a, b, x, max_iter=400, eps=3e-15):
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < tiny, tiny, d)
    d = 1.0 / d
    h = d.copy()
    active = np.ones(x.shape, bool)
    for m in range(1, max_iter + 1):
        m2 = 2.0 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d_new = 1.0 + aa * d
        d_new = np.where(np.abs(d_new) < tiny, tiny, d_new)
        c_new = 1.0 + aa / c
        c_new = np.where(np.abs(c_new) < tiny, tiny, c_new)
        d_new = 1.0 / d_new
        h_mid = h * d_new * c_new
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d2 = 1.0 + aa * d_new
        d2 = np.where(np.abs(d2) < tiny, tiny, d2)
        c2 = 1.0 + aa / c_new
        c2 = np.where(np.abs(c2) < tiny, tiny, c2)
        d2 = 1.0 / d2
        delta = d2 * c2
        h_new = h_mid * delta
        h = np.where(active, h_new, h)
        c = np.where(active, c2, c)
        d = np.where(active, d2, d)
        active = active & (np.abs(delta - 1.0) >= eps)
        if not active.any():
            break
    return h


def reference_reg_inc_beta(alpha, beta, xs):
    xs = np.asarray(xs, float)
    if alpha == 1.0 and beta == 1.0:
        return np.clip(xs, 0.0, 1.0).astype(float)
    out = np.empty_like(xs)
    at_zero = xs <= 0.0
    at_one = xs >= 1.0
    inner = ~(at_zero | at_one)
    out[at_zero] = 0.0
    out[at_one] = 1.0
    if inner.any():
        x = xs[inner]
        direct = x < (alpha + 1.0) / (alpha + beta + 2.0)
        w = np.where(direct, x, 1.0 - x)
        aa = np.where(direct, alpha, beta)
        bb = np.where(direct, beta, alpha)
        ln_front = (
            lgamma(alpha + beta) - lgamma(alpha) - lgamma(beta)
            + aa * np.log(w) + bb * np.log1p(-w)
        )
        val = np.exp(ln_front) * reference_beta_cf(aa, bb, w) / aa
        out[inner] = np.where(direct, val, 1.0 - val)
        np.clip(out, 0.0, 1.0, out=out)
    return out


def reference_quantile(alpha, beta, us, steps=60):
    us = np.asarray(us, float)
    lo = np.zeros_like(us)
    hi = np.ones_like(us)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = reference_reg_inc_beta(alpha, beta, mid) < us
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def reference_uniforms(rng, n):
    """The scalar stream with the redraw rule of sample_beta."""
    us = np.empty(n)
    for i in range(n):
        u = rng.uniform()
        while not 1e-12 <= u <= 1.0 - 1e-12:
            u = rng.uniform()
        us[i] = u
    return us
