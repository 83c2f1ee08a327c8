"""Beta-family CDFs and quantiles, plus the seeded PRNG used by simulations.

The regularized incomplete beta function is computed by the continued
fraction expansion (modified Lentz recurrence, cf. Numerical Recipes 6.4)
with the usual symmetry split.

The quantile is defined by bisection: the midpoint of [lo, hi] after 60
halvings of [0,1] on the test I_mid < u.  It is computed without one CDF
evaluation per step.  A Halley guess g predicts each quantile's bisection
path, batched CDF evaluations over the predicted midpoints check the steps
that need it, and a path that fails a check takes the true outcome at that
step and is predicted again from there.  Most steps need no check: around g
lies a window [g - d, g + d], and once I(g - d) < u - m and I(g + d) >= u + m
are evaluated, every midpoint at or below g - d tests below u and every one
at or above g + d does not, which is the prediction.  That is plain
bisection's own outcome because the computed I falls by less than the
margin m from any point to a later one.  m covers the rounding of the
exponent lnG(a+b) - lnG(a) - lnG(b) + a ln x + b ln(1-x), which becomes a
relative error of I and a jump at the symmetry split, so it grows with the
shapes, plus 1e-13 for the continued fraction and the 1 - I branch.  Only
the midpoints inside the window are evaluated, and the walk starts at the
first of them: with the window's ends and the guess's own, about 24 points
per variate instead of about 59.  Every step thus ends up decided by the
same I_mid < u test that plain bisection makes, and a continued-fraction
lane does not depend on the other points of its batch, so the result is
bit-identical to plain bisection whatever the guess; a poor (or NaN) guess
fails the window's tests or a check, and only costs time.

Sampling is plain inverse transform so that every variate is reproducible
from the uniform stream alone.

The PRNG is splitmix64: one 64-bit additive state advance plus a mixing
finalizer, in explicit integer arithmetic (Python integers one draw at a
time, numpy's wrapping uint64 arithmetic for a block of draws), so streams
are bit-identical on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, lgamma, log

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
# The least midpoint the bisection returns: every quantile below it ends there.
_FLOOR = 2.0 ** -(_STEPS + 1)
# The first this many midpoints from [0,1] are multiples of 2^-53 or coarser,
# so a walk's state at that depth or less is computed without rounding.
_EXACT = 53
# Most points that one CDF evaluation of the bisection check takes; it bounds
# the check's working arrays.
_BATCH = 8192
# Quantiles are found this many at a time; their predicted midpoints (up to
# _STEPS each) then fill at most eight checks, about three once the window
# has decided the far steps.
_LANES = _BATCH // 8
# The continued fraction stops a lane once an increment is within _CF_EPS of
# 1; a lane still going after _CF_MAX_ITER terms keeps its last value.
_CF_MAX_ITER = 400
_CF_EPS = 3e-15


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution; both must be finite and positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < inf and 0.0 < self.beta < inf):
            raise ValueError(
                f"Beta parameters must be finite and positive, got ({self.alpha}, {self.beta})")

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
        try:
            alpha, beta = map(float, text[len("beta:"):].split(","))
        except ValueError:
            pass
        else:
            return BetaParams(alpha, beta)
    raise ValueError(f"cannot parse distribution spec {spec!r}; expected beta:A,B or uniform")


# ---------------------------------------------------------------------------
# regularized incomplete beta function


def _beta_cf(a: float, b: float, x: np.ndarray, split: int) -> np.ndarray:
    """Continued fraction for the incomplete beta, vectorized modified Lentz.

    The first ``split`` lanes take the fraction of I_x(a, b), the rest that
    of I_x(b, a); each half steps with its own scalar coefficients.  A lane
    leaves the iteration as soon as its increment is within _CF_EPS of 1, so
    each lane's result is independent of the rest of the batch.

    Lentz replaces a c or d below 1e-300 in magnitude by 1e-300.  Every c
    and d is computed as 1 + t or 1 - t, which is either 0 or at least
    2^-53 in magnitude, so only zeros are replaced.
    """
    tiny = 1e-300
    qab = a + b
    out = np.empty_like(x)
    lane = np.arange(x.size)
    c = np.ones_like(x)
    d = np.empty_like(x)
    d[:split] = 1.0 - qab * x[:split] / (a + 1.0)
    d[split:] = 1.0 - qab * x[split:] / (b + 1.0)
    d[d == 0.0] = tiny
    np.divide(1.0, d, out=d)
    h = d.copy()
    aa = np.empty_like(x)
    halves = ((a, b, x[:split], aa[:split]), (b, a, x[split:], aa[split:]))
    for m in range(1, _CF_MAX_ITER + 1):
        if lane.size == 0:
            return out
        m2 = 2.0 * m
        for p, q, xs, t in halves:
            np.multiply(m * (q - m), xs, out=t)
            t /= (p - 1.0 + m2) * (p + m2)
        d *= aa
        d += 1.0
        d[d == 0.0] = tiny
        np.divide(aa, c, out=c)
        c += 1.0
        c[c == 0.0] = tiny
        np.divide(1.0, d, out=d)
        h *= d
        h *= c
        for p, _, xs, t in halves:
            np.multiply(-(p + m) * (qab + m), xs, out=t)
            t /= (p + m2) * (p + 1.0 + m2)
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
        going = np.abs(delta, out=delta) >= _CF_EPS
        if not going.all():
            done = np.flatnonzero(~going)
            out[lane[done]] = h[done]
            keep = np.flatnonzero(going)
            split = np.count_nonzero(going[:split])
            lane, x, h, c, d, aa = lane[keep], x[keep], h[keep], c[keep], d[keep], aa[:keep.size]
            halves = ((a, b, x[:split], aa[:split]), (b, a, x[split:], aa[split:]))
    out[lane] = h
    return out


def _reg_inc_beta(alpha: float, beta: float, xs: np.ndarray) -> np.ndarray:
    """I_x(alpha, beta) in one continued-fraction pass, the points above the
    symmetry split (alpha+1)/(alpha+beta+2) after the rest, as 1 - I_{1-x}(beta, alpha)."""
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
        order = np.concatenate([np.flatnonzero(direct), np.flatnonzero(~direct)])
        split = np.count_nonzero(direct)
        w = x[order]
        w[split:] = 1.0 - w[split:]
        val = _beta_cf(alpha, beta, w, split)
        front = lgamma(alpha + beta) - lgamma(alpha) - lgamma(beta)
        for half, p, q in ((slice(None, split), alpha, beta), (slice(split, None), beta, alpha)):
            val[half] = np.exp(front + p * np.log(w[half]) + q * np.log1p(-w[half])) * val[half] / p
        val[split:] = 1.0 - val[split:]
        x[order] = val
        out[inner] = x
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
    that its guess predicts, CDF evaluations over the walked midpoints that
    need one (at most _BATCH at a time) check those predicted steps, and a
    lane keeps its path up to its first wrong step, takes the true step there
    and goes on in the next round.
    Only midpoints strictly inside the lane's window (w_lo, w_hi) around the
    guess need one.  Once I(w_lo) < u - m and I(w_hi) >= u + m hold, and as
    the computed I falls by less than the margin m from any point to a later
    one, I_mid < u holds at every mid <= w_lo and fails at every mid >= w_hi:
    the prediction, as the guess lies inside the window.  m covers the
    rounding of I's exponent, which grows with the shapes (see _window).
    So a lane starts at its first step with a midpoint inside the window:
    no midpoint before it rounds, and the [lo, hi] there follows from the
    guess alone (_first_inside, _bracket).  The window's ends are evaluated
    with the first round's checks; a lane whose ends fail the test keeps
    nothing of that round and is walked again from [0,1] with every step
    checked.
    A lane whose ``mid`` equals ``lo`` or ``hi`` is finished: those were set
    by tests that held (or are 0) and failed (or are 1), so every later step
    repeats.
    """
    if a == 1.0 and b == 1.0:  # I_mid(1,1) = mid: every step toward u holds
        lo, hi = _bracket(us, _EXACT)
        return _walk(lo, hi, us, _STEPS - _EXACT + 1)[-1]
    guess = _quantile_guess(a, b, us)
    guess[np.isnan(guess)] = 0.0  # any guess is safe, but the walk needs a number
    win_lo, win_hi, margin = _window(a, b, guess)
    depth = _first_inside(win_lo, win_hi)
    lo, hi = _bracket(guess, depth)
    left = _STEPS - depth  # steps each lane has still to take
    todo = np.arange(us.size)
    first = True
    while todo.size:
        budget = left[todo]
        steps = int(budget.max())
        g = guess[todo]
        mids = _walk(lo[todo], hi[todo], g, steps)
        below = mids < g
        # steps past a lane's budget are not its own; a repeated midpoint
        # repeats its test, so of a stopped lane's steps only the first is checked
        checked = np.arange(steps)[:, None] < budget
        checked[1:] &= mids[1:] != mids[:-1]
        checked &= (mids > win_lo[todo]) & (mids < win_hi[todo])
        step_at, lane_at = np.nonzero(checked)
        points = mids[step_at, lane_at]
        if first:  # the window's ends are checked with the first round's steps
            points = np.concatenate([points, win_lo, win_hi])
        values = np.empty_like(points)
        for start in range(0, points.size, _BATCH):
            values[start:start + _BATCH] = _reg_inc_beta(a, b, points[start:start + _BATCH])
        wrong = np.zeros_like(checked)
        wrong[step_at, lane_at] = ((values[:step_at.size] < us[todo[lane_at]])
                                   != below[step_at, lane_at])
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
        if first:  # a lane whose window's ends fail the test starts again from [0,1]
            ends = values[step_at.size:].reshape(2, us.size)
            lost = ~((ends[0] < us - margin) & (ends[1] >= us + margin))
            win_lo[lost], win_hi[lost] = -np.inf, np.inf
            lo[lost], hi[lost], left[lost] = 0.0, 1.0, _STEPS
            failed |= lost
            first = False
        todo = todo[failed]
        mid = 0.5 * (lo[todo] + hi[todo])
        todo = todo[(left[todo] > 0) & (mid != lo[todo]) & (mid != hi[todo])]
    return 0.5 * (lo + hi)


def _walk(lo: np.ndarray, hi: np.ndarray, g: np.ndarray, steps: int) -> np.ndarray:
    """Midpoints of ``steps`` bisection steps of [lo, hi] on the test mid < g."""
    mids = np.empty((steps, lo.size))
    for step in range(steps):
        mid = 0.5 * (lo + hi)
        mids[step] = mid
        below = mid < g
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return mids


def _bracket(g: np.ndarray, depth):
    """The [lo, hi] that ``depth`` bisection steps of [0,1] on the test
    mid < g reach: lo is the largest multiple of 2^-depth below g (0 if
    none, at most 1 - 2^-depth) and hi = lo + 2^-depth.  For depth up to
    _EXACT no midpoint rounds, so these are the walk's own values."""
    scale = np.exp2(depth)
    lo = np.minimum(np.maximum(np.ceil(g * scale) - 1.0, 0.0), scale - 1.0) / scale
    return lo, lo + 1.0 / scale


def _first_inside(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Steps from [0,1] before the walk toward any point of (lo, hi) takes a
    midpoint inside (lo, hi), at most _EXACT.

    Until then the walk's [l, h] holds [lo, hi]: a midpoint at or below lo
    raises l, one at or above hi lowers h.  So the count is the depth k of
    the smallest dyadic [j 2^-k, (j+1) 2^-k] that holds [lo, hi]: the most
    leading bits, of _EXACT, that the cell numbers floor(lo 2^_EXACT) and
    ceil(hi 2^_EXACT) - 1 share.
    """
    cells = 2.0**_EXACT
    first = np.floor(np.clip(lo, 0.0, 1.0) * cells)
    last = np.ceil(np.clip(hi, 0.0, 1.0) * cells) - 1.0
    apart = first.astype(np.uint64) ^ last.astype(np.uint64)
    return _EXACT - np.frexp(apart.astype(float))[1]


def _window(a: float, b: float, guess: np.ndarray):
    """Per lane, ends lo < guess < hi and the margin m that I(lo) < u - m and
    I(hi) >= u + m must clear; where lo < guess < hi fails, the ends -inf and
    inf, which decide no step, and m = 0, which they clear.

    m is 2^-44 (2^9 ulps) of 1 + |lnG(a+b)| + |lnG(a)| + |lnG(b)|
    + |a ln g| + |b ln(1-g)|, the terms of I's exponent whose rounding
    becomes a relative error of I, plus 1e-13 for the continued fraction and
    the 1 - I_{1-x}(b,a) branch.  At points farther out, where |a ln x| or
    |b ln(1-x)| is larger, I (or 1 - I) is smaller by more, so their error
    stays within m.  Measured on dense grids around the split and around
    random points, for shapes from 0.01 to 1e5, the computed I fell by at
    most 0.5% of m.  The half-width is 4m over the density f at g, so a
    guess within about 3m/f of the quantile passes.
    """
    front = lgamma(a + b) - lgamma(a) - lgamma(b)
    with np.errstate(all="ignore"):
        ln_x, ln_y = np.log(guess), np.log1p(-guess)
        margin = 1e-13 + 2.0**-44 * (1.0 + abs(lgamma(a + b)) + abs(lgamma(a)) + abs(lgamma(b))
                                     + np.abs(a * ln_x) + np.abs(b * ln_y))
        half = 4.0 * margin / np.exp((a - 1.0) * ln_x + (b - 1.0) * ln_y + front)
        lo, hi = guess - half, guess + half
    inside = (lo < guess) & (guess < hi)
    return (np.where(inside, lo, -np.inf), np.where(inside, hi, np.inf),
            np.where(inside, margin, 0.0))


def _quantile_guess(a: float, b: float, us: np.ndarray) -> np.ndarray:
    """Approximate quantiles: Halley steps from the starting point of
    Numerical Recipes (3rd ed., 6.4, invbetai), taken on each lane until a
    step is below 1e-10 of x.  Only steers the bisection, so any value, NaN
    included, is safe."""
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
    """Inverse CDF by a 60-step bisection of [0,1].

    |beta_cdf(result) - u| <= 1e-10 wherever the CDF rises by at most 1e-10
    over 2^-61 or an ulp of the result; not near 1 when beta < 1, nor near 0
    when alpha < 1.  For Beta(2, 0.05), I(1 - 2^-53) = 0.8327: u = 0.8 leaves
    a residual of 1.1e-4, and every u above 0.833 returns 1.0.
    """
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

    Uniform draws outside [1e-12, 1 - 1e-12] are rejected and redrawn.  The
    variates lie in (0,1]: the 60-step bisection ends on a midpoint, which
    is at least 2^-61, but a quantile above 1 - 2^-54 rounds to exactly 1.0
    (Beta(2,0.05) and Beta(0.1,0.1) give such variates), and every quantile
    below 2^-61 ends on 2^-61 (Beta(0.05,2) gives such variates).
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    us = rng.uniforms(n)
    while True:
        us = us[(us >= 1e-12) & (us <= 1.0 - 1e-12)]
        if us.size == n:
            return _beta_quantile_vec(params, us)
        us = np.concatenate([us, rng.uniforms(n - us.size)])
