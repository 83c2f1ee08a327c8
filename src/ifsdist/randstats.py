"""Beta-family CDFs and quantiles, plus the seeded PRNG used by simulations.

The regularized incomplete beta function is computed by the continued
fraction expansion (modified Lentz recurrence, cf. Numerical Recipes 6.4)
with the usual symmetry split.

The quantile is defined by bisection: the midpoint of [lo, hi] after 60
halvings of [0,1] on the test I_mid < u.  It is computed without one CDF
evaluation per step.  A Halley guess predicts each quantile's bisection
path, batched CDF evaluations over all predicted midpoints check every
step, and a path that fails a check takes the true outcome at that step and
is predicted again from there.  Every step thus ends up decided by the same
I_mid < u test that plain bisection makes, and a continued-fraction lane
does not depend on the other points of its batch, so the result is
bit-identical to plain bisection whatever the guess; a poor (or NaN) guess
only costs time.

Sampling is plain inverse transform so that every variate is reproducible
from the uniform stream alone.

The PRNG is splitmix64: one 64-bit additive state advance plus a mixing
finalizer, in explicit integer arithmetic (Python integers one draw at a
time, numpy's wrapping uint64 arithmetic for a block of draws), so streams
are bit-identical on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log

import numpy as np

from .distfn import DistributionFunction

__all__ = [
    "BetaParams",
    "BetaDF",
    "SeededRng",
    "beta_cdf",
    "beta_quantile",
    "sample_beta",
    "derive_substream",
    "parse_distribution",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# The quantile is the midpoint after this many bisection halvings of [0,1].
_STEPS = 60
# Most points that one CDF evaluation of the bisection check takes; it bounds
# the check's working arrays.
_BATCH = 8192
# Quantiles are found this many at a time; their predicted midpoints (up to
# _STEPS each) then fill about eight checks.
_LANES = _BATCH // 8
# Up to this many points, a CDF evaluation with points on both sides of the
# symmetry split runs one continued fraction with per-point shapes.
_SMALL = 512


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution; both must be positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"Beta parameters must be positive, got ({self.alpha}, {self.beta})")

    def label(self) -> str:
        def fmt(v: float) -> str:
            return str(int(v)) if float(v).is_integer() else repr(float(v))

        return f"beta:{fmt(self.alpha)},{fmt(self.beta)}"


def parse_distribution(spec: str) -> BetaParams:
    """Parse ``beta:A,B`` (or the alias ``uniform``) into parameters."""
    text = spec.strip().lower()
    if text == "uniform":
        return BetaParams(1.0, 1.0)
    if text.startswith("beta:"):
        parts = text[len("beta:"):].split(",")
        if len(parts) == 2:
            try:
                return BetaParams(float(parts[0]), float(parts[1]))
            except ValueError:
                pass
    raise ValueError(f"cannot parse distribution spec {spec!r}; expected beta:A,B or uniform")


# ---------------------------------------------------------------------------
# regularized incomplete beta function


def _beta_cf(a, b, x: np.ndarray, max_iter: int = 400, eps: float = 3e-15) -> np.ndarray:
    """Continued fraction for the incomplete beta, vectorized modified Lentz.

    ``a`` and ``b`` are scalars, or arrays shaped like ``x`` (one pair per
    lane).  A lane leaves the iteration as soon as its increment is within
    eps of 1, so each lane's result is independent of the rest of the batch.

    Lentz replaces a c or d below 1e-300 in magnitude by 1e-300.  Every c
    and d is computed as 1 + t or 1 - t, which is either 0 or at least
    2^-53 in magnitude, so only zeros are replaced.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    per_lane = np.ndim(a) > 0
    out = np.empty_like(x)
    lane = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[d == 0.0] = tiny
    np.divide(1.0, d, out=d)
    h = d.copy()
    for m in range(1, max_iter + 1):
        if lane.size == 0:
            return out
        m2 = 2.0 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d *= aa
        d += 1.0
        d[d == 0.0] = tiny
        np.divide(aa, c, out=c)
        c += 1.0
        c[c == 0.0] = tiny
        np.divide(1.0, d, out=d)
        h *= d
        h *= c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d *= aa
        d += 1.0
        d[d == 0.0] = tiny
        np.divide(aa, c, out=c)
        c += 1.0
        c[c == 0.0] = tiny
        np.divide(1.0, d, out=d)
        delta = d * c
        h *= delta
        delta -= 1.0
        going = np.abs(delta, out=delta) >= eps
        if not going.all():
            done = np.flatnonzero(~going)
            out[lane[done]] = h[done]
            keep = np.flatnonzero(going)
            lane, x, h, c, d = lane[keep], x[keep], h[keep], c[keep], d[keep]
            if per_lane:
                a, b, qab, qap, qam = a[keep], b[keep], qab[keep], qap[keep], qam[keep]
    out[lane] = h
    return out


def _reg_inc_beta(alpha: float, beta: float, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, float)
    if alpha == 1.0 and beta == 1.0:  # I_x(1,1) = x exactly
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
        front = lgamma(alpha + beta) - lgamma(alpha) - lgamma(beta)

        def series(w, aa, bb):  # I_w(aa, bb), for w below the split
            return np.exp(front + aa * np.log(w) + bb * np.log1p(-w)) * _beta_cf(aa, bb, w) / aa

        if x.size <= _SMALL and 0 < np.count_nonzero(direct) < x.size:
            # few points on both sides: one pass with per-lane shapes costs
            # less than two passes with scalar ones
            val = series(np.where(direct, x, 1.0 - x),
                         np.where(direct, alpha, beta), np.where(direct, beta, alpha))
            out[inner] = np.where(direct, val, 1.0 - val)
        else:
            val = np.empty_like(x)
            for lanes, aa, bb, swap in ((np.flatnonzero(direct), alpha, beta, False),
                                        (np.flatnonzero(~direct), beta, alpha, True)):
                if lanes.size:
                    v = series(1.0 - x[lanes] if swap else x[lanes], aa, bb)
                    val[lanes] = 1.0 - v if swap else v
            out[inner] = val
        np.clip(out, 0.0, 1.0, out=out)
    return out


def beta_cdf(params: BetaParams, x: float) -> float:
    """Regularized incomplete beta function I_x(alpha, beta)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x = {x} outside [0,1]")
    return float(_reg_inc_beta(params.alpha, params.beta, np.array([x]))[0])


def _beta_quantile_vec(params: BetaParams, us: np.ndarray) -> np.ndarray:
    """60-step bisection of I_x(alpha, beta) = u on [0,1] for every u."""
    us = np.asarray(us, float)
    flat = us.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _LANES):
        out[start:start + _LANES] = _bisect(params.alpha, params.beta,
                                            flat[start:start + _LANES])
    return out.reshape(us.shape)


def _bisect(a: float, b: float, us: np.ndarray) -> np.ndarray:
    """Bisection on the test I_mid < u, steered by a guess and then checked.

    In each round every unfinished lane walks the rest of the bisection path
    that its guess predicts, CDF evaluations over all walked midpoints (at
    most _BATCH at a time) check every predicted step, and a lane keeps its
    path up to its first wrong step, takes the true step there and goes on
    in the next round.
    A lane whose ``mid`` equals ``lo`` or ``hi`` is finished: those were set
    by tests that held (or are 0) and failed (or are 1), so every later step
    repeats.
    """
    guess = _quantile_guess(a, b, us)
    lo = np.zeros_like(us)
    hi = np.ones_like(us)
    left = np.full(us.size, _STEPS)  # steps each lane has still to take
    todo = np.arange(us.size)
    while todo.size:
        budget = left[todo]
        steps = int(budget.max())
        walk_lo, walk_hi, g = lo[todo], hi[todo], guess[todo]
        mids = np.empty((steps, todo.size))
        for step in range(steps):
            mid = 0.5 * (walk_lo + walk_hi)
            mids[step] = mid
            below = mid < g
            walk_lo = np.where(below, mid, walk_lo)
            walk_hi = np.where(below, walk_hi, mid)
        if a == 1.0 and b == 1.0:  # I_mid(1,1) = mid and the guess is u: every step holds
            return 0.5 * (walk_lo + walk_hi)
        below = mids < g
        # steps past a lane's budget are not its own; a repeated midpoint
        # repeats its test, so of a stopped lane's steps only the first is checked
        checked = np.arange(steps)[:, None] < budget
        checked[1:] &= mids[1:] != mids[:-1]
        levels = np.broadcast_to(us[todo], mids.shape)
        wrong = np.zeros_like(checked)
        rows = _BATCH // todo.size
        for row in range(0, steps, rows):
            part = slice(row, row + rows)
            check = checked[part]
            holds = _reg_inc_beta(a, b, mids[part][check]) < levels[part][check]
            wrong[part][check] = holds != below[part][check]
        failed = wrong.any(axis=0)
        # each lane keeps its path up to its first wrong step, where it takes
        # the true outcome instead, or to the end of its budget
        truth = below ^ wrong
        end = np.where(failed, wrong.argmax(axis=0), budget - 1)
        kept = np.arange(steps)[:, None] <= end
        # lo and hi end at the last midpoint that raised or lowered them
        lanes = np.arange(todo.size)
        for bound, moved in ((lo, kept & truth), (hi, kept & ~truth)):
            last = steps - 1 - moved[::-1].argmax(axis=0)
            bound[todo] = np.where(moved.any(axis=0), mids[last, lanes], bound[todo])
        left[todo] = np.where(failed, budget - end - 1, 0)
        todo = todo[failed]
        mid = 0.5 * (lo[todo] + hi[todo])
        todo = todo[(left[todo] > 0) & (mid != lo[todo]) & (mid != hi[todo])]
    return 0.5 * (lo + hi)


def _quantile_guess(a: float, b: float, us: np.ndarray) -> np.ndarray:
    """Approximate quantiles: Halley steps from the starting point of
    Numerical Recipes (3rd ed., 6.4, invbetai), taken on each lane until a
    step is below 1e-10 of x; exact for the uniform.  Only steers the
    bisection, so any value, NaN included, is safe."""
    if a == 1.0 and b == 1.0:
        return us.copy()
    with np.errstate(all="ignore"):
        if a >= 1.0 and b >= 1.0:
            pp = np.where(us < 0.5, us, 1.0 - us)
            t = np.sqrt(-2.0 * np.log(pp))
            x = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
            x = np.where(us < 0.5, -x, x)
            al = (x * x - 3.0) / 6.0
            h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
            w = (x * np.sqrt(al + h) / h
                 - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h)))
            x = a / (a + b * np.exp(2.0 * w))
        else:
            lna, lnb = log(a / (a + b)), log(b / (a + b))
            t, u = exp(a * lna) / a, exp(b * lnb) / b
            w = t + u
            x = np.where(us < t / w, (a * w * us) ** (1.0 / a),
                         1.0 - (b * w * (1.0 - us)) ** (1.0 / b))
        afac = lgamma(a + b) - lgamma(a) - lgamma(b)
        lanes = np.arange(us.size)
        for _ in range(10):
            lanes = lanes[(x[lanes] > 0.0) & (x[lanes] < 1.0)]
            if lanes.size == 0:
                break
            xl = x[lanes]
            err = _reg_inc_beta(a, b, xl) - us[lanes]
            u = err / np.exp((a - 1.0) * np.log(xl) + (b - 1.0) * np.log1p(-xl) + afac)
            step = u / (1.0 - 0.5 * np.minimum(1.0, u * ((a - 1.0) / xl - (b - 1.0) / (1.0 - xl))))
            xl = xl - step
            xl = np.where(xl <= 0.0, 0.5 * (xl + step), xl)
            xl = np.where(xl >= 1.0, 0.5 * (xl + step + 1.0), xl)
            x[lanes] = xl
            lanes = lanes[~(np.abs(step) < 1e-10 * xl)]
    return x


def beta_quantile(params: BetaParams, u: float) -> float:
    """Inverse CDF by bisection; |beta_cdf(result) - u| <= 1e-10."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile level {u} outside (0,1)")
    return float(_beta_quantile_vec(params, np.array([u]))[0])


class BetaDF(DistributionFunction):
    """Beta CDF as a distribution function on [0,1]."""

    def __init__(self, params: BetaParams):
        self.params = params

    def eval(self, x: float) -> float:
        return beta_cdf(self.params, x)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return _reg_inc_beta(self.params.alpha, self.params.beta, xs)

    def eval_left_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, float)
        return np.where(xs <= 0.0, 0.0, self.eval_array(xs))

    def __repr__(self) -> str:
        return f"BetaDF({self.params.alpha}, {self.params.beta})"


# ---------------------------------------------------------------------------
# reproducible randomness


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SeededRng:
    """splitmix64 stream: state += 0x9E3779B97F4A7C15, output = mix(state).

    mix(z) is z ^= z>>30, *= 0xBF58476D1CE4E5B9, z ^= z>>27,
    *= 0x94D049BB133111EB, z ^= z>>31, all modulo 2^64.  Identical seeds
    give identical streams on every platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._state = self.seed

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform double in [0,1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` values of :meth:`uniform`, as one array.

        numpy's uint64 arithmetic wraps modulo 2^64, so the stream is the
        same as ``count`` calls of :meth:`uniform`.
        """
        z = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return (z >> np.uint64(11)).astype(float) * (1.0 / 9007199254740992.0)


def derive_substream(seed: int, index: int) -> int:
    """Seed of substream ``index``: mix64(seed ^ mix64((index+1)*GOLDEN)).

    Substreams depend only on (seed, index), so parallel trials are
    deterministic regardless of scheduling order.
    """
    child = _mix64(((int(index) + 1) * _GOLDEN) & _MASK64)
    return _mix64((int(seed) ^ child) & _MASK64)


def sample_beta(params: BetaParams, n: int, rng: SeededRng) -> np.ndarray:
    """n inverse-transform Beta variates from the rng's uniform stream.

    Uniform draws outside [1e-12, 1 - 1e-12] are rejected and redrawn so
    every variate lies strictly inside (0,1).
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    us = rng.uniforms(n)
    while True:
        us = us[(us >= 1e-12) & (us <= 1.0 - 1e-12)]
        if us.size == n:
            return _beta_quantile_vec(params, us)
        us = np.concatenate([us, rng.uniforms(n - us.size)])
