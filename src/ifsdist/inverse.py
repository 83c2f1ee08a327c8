"""Collage distance D(p) = d_sup(T_p F, F) and its minimization over the
weight simplex C = {p >= 0, sum p = 1 - sum delta}.

With maps and offsets fixed, T_p F(x) - F(x) is affine in p at every x, so
D is a maximum of finitely many |affine| terms once the sup is reduced to a
finite point set.  One assembly builds the rows from that set: a right-value
row at every point below 1 and a left-limit row at every point above 0,
pulled back with the operator's own kernel (:func:`ifsdist.ifs._pullback`),
so each row is T_p F - F as ``apply`` evaluates it, on either side of a
jump, up to summation round-off.  The two modes differ only in the points:

- exact mode (identity partitions): the cells' starts and ends.  On a cell
  T_p F - F is affine in F(x), so its sup sits at the cell's start (right
  value) or end (left limit): two rows per cell, and D is the true sup;
- grid mode (general maps): those points united with a uniform grid, the
  target's breakpoints and their map images, a lower bound on the true sup.

A row whose point lies in cell i reads (1 - w) P_i + w P_{i+1} - c, with
P_i = sum_{j<i} p_j the cumulative weights, w = F at the point's preimage
and c = F at the point minus sum_{j<i} delta_j.  A problem stores its rows
as the three arrays (cell, w, c), ordered by cell, point and side.

Minimizing max |row| over C is the linear program min t s.t. |row| <= t,
p in C, and one chain solver serves both modes.  A row involves only
P_i and P_{i+1}, so for a fixed t one forward pass carries the interval of
feasible P_i from cell to cell, bisection on t finds the least feasible t
and a backward pass recovers p*.  Each cell's step projects the polygon its
rows cut out of the (P_i, P_{i+1}) plane onto P_{i+1}; only the rows on the
convex hull of the cell's points (w, c) can bound it.  A pass also returns
its least slack and the slope of that in t.  The solver replays the
bisection midpoints, and a midpoint gets a pass only if no pass has decided
it; before that pass, it aims one with those slopes at the least feasible t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distfn import DistributionFunction
from .ifs import _TOL, _MapTable, _pullback

__all__ = [
    "CollageProblem",
    "InverseSolution",
    "collage_distance",
    "solve_inverse",
    "collage_bound",
]


class LpError(ValueError):
    """A collage LP the chain solver could not finish.

    Raised if a forward pass rejects the upper end of the bisection bracket,
    a t at which a known weight vector is feasible.  It is a ValueError, so
    the CLI reports it and exits 1.
    """


class CollageProblem:
    """Inverse problem: fixed target F, maps and offsets; free weights p.

    ``mode`` is derived: "exact" if every map is the identity (rows at the
    cells' ends only, exact sup), "grid" otherwise (``grid_size`` uniform
    points added).  The rows, with D(p) = max |row(p)|, are assembled once;
    ``eval_spots`` holds each row's (x, is_left_limit).
    """

    def __init__(self, target: DistributionFunction, maps, delta, grid_size: int = 512):
        self._table = _MapTable.of(maps)
        self.delta = np.asarray(delta, float).copy()
        self.delta.flags.writeable = False
        structural = self._table.violations(self.delta)
        if structural:
            raise ValueError("invalid collage problem: " + "; ".join(structural))
        self.target = target
        self.k = self._table.k
        self.weight_sum = 1.0 - float(np.sum(self.delta))
        if self.weight_sum <= 0.0:
            raise ValueError(
                f"1 - sum(delta) = {self.weight_sum} must be positive for a usable simplex"
            )
        self.mode = "exact" if self._table.exact.all() else "grid"
        self.grid_size = int(grid_size)
        self._assemble()

    @property
    def maps(self) -> tuple:
        return self._table.maps

    # -- constraint assembly ------------------------------------------------

    def _assemble(self) -> None:
        target, table = self.target, self._table
        pts = [table.starts, table.ends]
        if self.mode == "grid":
            pts.append(np.linspace(0.0, 1.0, self.grid_size))
            bps = np.asarray(target.breakpoints(), float)
            if bps.size:
                pts += [bps, table.images(bps)]
        xs = np.unique(np.concatenate(pts))
        xs = xs[(xs >= 0.0) & (xs <= 1.0)]
        # a right-value row at every x < 1 and a left-limit row at every
        # x > 0; T_p F(1) = 1 = F(1) would only restate sum p = weight_sum
        xr, xl = xs[xs < 1.0], xs[xs > 0.0]
        cell_r, pulled_r = _pullback(table, xr)
        cell_l, pulled_l = _pullback(table, xl, left=True)
        w_r, f_r = np.split(target.eval_array(np.concatenate([pulled_r, xr])), 2)
        w_l, f_l = np.split(target.eval_left_array(np.concatenate([pulled_l, xl])), 2)
        cell, x = np.concatenate([cell_r, cell_l]), np.concatenate([xr, xl])
        is_left = np.arange(len(x)) >= len(xr)
        order = np.lexsort((is_left, x, cell))
        w = np.concatenate([w_r, w_l])[order]
        if not np.all((w >= -_TOL) & (w <= 1.0 + _TOL)):  # the chain solver needs w in [0,1]
            raise ValueError("target values must lie in [0,1]")
        cum_delta = np.concatenate([[0.0], np.cumsum(self.delta)])
        self._cell, self._w = cell[order], w
        self._c = np.concatenate([f_r, f_l])[order] - cum_delta[self._cell]
        for arr in (self._cell, self._w, self._c):
            arr.flags.writeable = False
        self._start_values = f_r[np.searchsorted(xr, table.starts)]
        self.eval_spots = tuple(zip(x[order].tolist(), is_left[order].tolist()))

    def residuals(self, p) -> np.ndarray:
        """Signed values T_p F - F at every constraint point, affine in p."""
        p = np.asarray(p, float)
        if p.shape != (self.k,):
            raise ValueError(f"expected weight vector of length {self.k}, got shape {p.shape}")
        cum = np.concatenate([[0.0], np.cumsum(p)])
        return cum[self._cell] + self._w * p[self._cell] - self._c

    def __repr__(self) -> str:
        return f"CollageProblem(k={self.k}, mode={self.mode!r}, rows={len(self._c)})"


def collage_distance(problem: CollageProblem, p) -> float:
    """D(p) = max |T_p F - F| over the problem's evaluation set.

    Defined for any real weight vector, not only points of C; D is convex.
    """
    return float(np.max(np.abs(problem.residuals(p))))


def collage_bound(epsilon: float, c: float) -> float:
    """Fixed-point distance guarantee epsilon/(1-c) from a collage distance."""
    if not epsilon >= 0.0:
        raise ValueError("epsilon must be non-negative")
    if not c < 1.0:
        raise ValueError(f"contractivity constant must be < 1, got {c}")
    return epsilon / (1.0 - c)


@dataclass
class InverseSolution:
    p_star: np.ndarray
    d_star: float
    iterations: int
    mode: str
    active_constraints: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "p_star": [float(v) for v in self.p_star],
            "D_star": float(self.d_star),
            "active_constraints": [int(i) for i in self.active_constraints],
            "iterations": int(self.iterations),
            "mode": self.mode,
        }


def solve_inverse(problem: CollageProblem) -> InverseSolution:
    """Minimize D over C as the LP  min t : |row(p)| <= t, p in C.

    Both modes use the chain solver: forward passes of interval propagation
    in the cumulative weights, bisection on t to within 1e-13, and a backward
    pass for p*.  The passes are aimed at the least feasible t, so most
    bisection midpoints need no pass of their own, and the result is that of
    plain bisection bit for bit.  ``iterations`` counts the forward passes:
    7-9 on average on perfbench's LP inputs, where plain bisection made 42,
    and never more than 3 above plain bisection's count.  p* is >= 0 and
    sums to ``weight_sum`` up to round-off, and D(p*) is the constrained
    minimum of the assembled rows up to floating-point round-off.
    """
    p, iterations = _solve_chain(problem)
    res = np.abs(problem.residuals(p))
    d_star = float(np.max(res))
    return InverseSolution(
        p_star=p,
        d_star=d_star,
        iterations=iterations,
        mode=problem.mode,
        active_constraints=list(np.nonzero(res >= d_star - 1e-8)[0]),
    )


# ---------------------------------------------------------------------------
# chain solver

# Bisection on t stops once the bracket is this narrow.
_CHAIN_TOL = 1e-13

_INF = float("inf")

# An aimed pass goes this far past the predicted least feasible t, so that
# round-off in the slack leaves its verdict as predicted.
_AIM_MARGIN = 2.0 ** -50

# Passes are aimed only while the solver has made fewer than this many
# passes more than plain bisection would have.
_AIM_EXCESS = 3


def _solve_chain(problem: CollageProblem):
    """min t s.t. |row(p)| <= t, p >= 0, sum p = weight_sum.

    For a fixed t, :func:`_chain_pass` carries the interval of feasible P_i
    from cell to cell; bisection on [t_floor, t_hi] down to ``_CHAIN_TOL``
    finds the least feasible t, and :func:`_chain_weights` walks back
    through the stored intervals to a feasible p.  Returns (p, number of
    forward passes).

    A pass's verdict is monotone in t, in floating point too: every bound
    of the pass is monotone in t and in the carried lo and hi (q >= 0,
    r > 0, and IEEE rounding is monotone), and the nan of inf * 0 drops out
    of both sides alike.  So a pass that fails at t fails at every t' <= t,
    and one that succeeds at t succeeds at every t' >= t.  A bisection
    midpoint outside the open interval (bad, ok) between the greatest
    failed and the least succeeded t needs no pass, and the bisection takes
    the same steps to the same t as one with a pass at every midpoint.

    The passes are aimed to make that interval narrow.  The slack is
    concave and non-decreasing in t, so a tangent at either end meets zero
    at or left of the least feasible t, and the chord between the ends at
    or right of it.  Before the pass at a midpoint inside (bad, ok),
    :func:`_aim` offers a pass just past one of those zeros whose predicted
    verdict decides the midpoint; if the prediction holds, it also decides
    every later midpoint on that side.  The predictions can miss: the slack
    of a failed pass is that of its first failing cell, and bounds of zero
    weight make it jump.  So a pass is aimed only while fewer than
    ``_AIM_EXCESS`` passes have been made beyond those of plain bisection,
    and the solver never makes more than that many extra passes.
    """
    total = problem.weight_sum
    cells, t_floor = _chain_cells(problem._cell, np.clip(problem._w, 0.0, 1.0),
                                  problem._c, problem.k)

    # upper end of the bracket: D at the weights F(end_i) - F(start_i) of
    # each map's image, which sum to at least 1 - F(0)
    guess = np.maximum(np.diff(np.append(problem._start_values, 1.0)), 0.0)
    guess *= total / guess.sum()
    # D(guess) is feasible; the margin keeps round-off from rejecting it
    t_hi = float(np.max(np.abs(problem.residuals(guess)))) * (1.0 + 1e-9) + 1e-15
    slack, slope = _chain_pass(cells, total, t_hi)
    if not slack >= 0.0:
        raise LpError(f"chain solver rejected the feasible bound t = {t_hi}")
    # (t, slack, slope) of the ends of (bad, ok); t_floor has no pass
    bad, ok = (t_floor, -_INF, 0.0), (t_hi, slack, slope)
    passes, excess = 1, 0
    t_lo = t_floor  # no t below it is feasible
    while t_hi - t_lo > _CHAIN_TOL:
        t = 0.5 * (t_lo + t_hi)
        if excess < _AIM_EXCESS and bad[0] < t < ok[0]:
            aim = _aim(t, bad, ok)
            if bad[0] < aim < ok[0]:
                bad, ok = _probe(cells, total, aim, bad, ok)
                passes, excess = passes + 1, excess + 1
        if bad[0] < t < ok[0]:
            bad, ok = _probe(cells, total, t, bad, ok)
            passes += 1
        else:  # a pass that bisection makes and this solver does not
            excess -= 1
        if t >= ok[0]:
            t_hi = t
        else:
            t_lo = t
    lows, highs = [], []
    passes += 1
    _chain_pass(cells, total, t_hi, lows, highs)
    return _chain_weights(cells, total, t_hi, lows, highs), passes


def _probe(cells, total: float, t: float, bad, ok):
    """The ends (bad, ok) after a pass at t."""
    slack, slope = _chain_pass(cells, total, t)
    return (bad, (t, slack, slope)) if slack >= 0.0 else ((t, slack, slope), ok)


def _aim(t: float, bad, ok) -> float:
    """A pass target whose predicted verdict decides the midpoint t, or nan.

    The least feasible t is predicted to lie in [low, high]: low is the
    greater zero of the tangents at the ends, and high the chord's zero,
    or low where the slack is not concave and the chord's zero lies below
    it.  Without a finite slack at the bad end there is no chord, and high
    is the bad end itself if the tangent points below it.  The target is
    low less a margin if that lies above t (predicted to fail), or high
    plus a margin if that lies below t (predicted to pass).
    """
    (t_bad, s_bad, g_bad), (t_ok, s_ok, g_ok) = bad, ok
    low = t_ok - s_ok / g_ok if g_ok > 0.0 else -_INF
    if math.isfinite(s_bad):
        if g_bad > 0.0:
            low = max(low, t_bad - s_bad / g_bad)
        high = max(low, t_ok - s_ok * (t_ok - t_bad) / (s_ok - s_bad))
    else:
        high = t_bad if low <= t_bad else _INF
    if low - _AIM_MARGIN > t:
        return low - _AIM_MARGIN
    return high + _AIM_MARGIN if high + _AIM_MARGIN < t else math.nan


def _chain_cells(cell: np.ndarray, w: np.ndarray, c: np.ndarray, k: int):
    """Per-cell bounds of the forward pass, and a floor on t.

    Cell i's rows, with x = P_i and y = P_{i+1}, ask
    c - t <= (1 - w) x + w y <= c + t.  Eliminating x between them and
    lo <= x <= min(hi, y) (Fourier-Motzkin) leaves bounds on y of the forms

        y <= (cl + t - q lo) r,    y >= (cu - t - q hi) r,    y >= top - t,

    with q = 1 - w and r = 1/w for a single row, and constraints on t alone.
    Only the lower convex hull of the cell's points (w, c) can bound x from
    above and only the upper hull from below; with p_i = y - x >= 0 only the
    hull parts of non-negative slope matter.  The bounds are then: each
    lower-hull row with lo, each upper-hull row with hi, the topmost row
    with y >= x, and each upper/lower row pair that is active together
    somewhere along p_i >= 0.  A pair with equal w bounds t alone.  A cell
    is (top, terms): its terms are tuples (cl, cu, q, r), a lower and an
    upper bound that share q and r, with +-inf for an absent side.
    """
    order = np.lexsort((c, w, cell))
    cell, w, c = cell[order], w[order], c[order]
    bounds = np.searchsorted(cell, np.arange(k + 1))
    two = np.diff(bounds) == 2
    first = bounds[:-1][two]
    cells, t_floor = [(-_INF, ())] * k, 0.0
    if first.size:
        two_cells, t_floor = _two_row_cells(w[first], c[first], w[first + 1], c[first + 1])
        for i, two_cell in zip(np.flatnonzero(two).tolist(), two_cells):
            cells[i] = two_cell
    ws, cs, bounds = w.tolist(), c.tolist(), bounds.tolist()
    for i in np.flatnonzero(~two).tolist():
        cells[i], floor = _hull_cell(ws[bounds[i]:bounds[i + 1]], cs[bounds[i]:bounds[i + 1]])
        t_floor = max(t_floor, floor)
    return cells, t_floor


def _hull_cell(ws, cs):
    """One cell (top, terms) and its t floor from its rows sorted by (w, c)."""
    lower, upper = _hulls(ws, cs)
    terms, t_floor = {}, 0.0

    def add(q, r, cl=_INF, cu=-_INF):
        slot = terms.setdefault((q, r), [_INF, -_INF])
        slot[0], slot[1] = min(slot[0], cl), max(slot[1], cu)

    for wj, cj in lower:   # y <= (c + t - (1 - w) lo) / w
        add(1.0 - wj, 1.0 / wj if wj > 0.0 else _INF, cl=cj)
    for wj, cj in upper:   # y >= (c - t - (1 - w) hi) / w
        add(1.0 - wj, 1.0 / wj if wj > 0.0 else _INF, cu=cj)
    for (wm, cm), (wn, cn) in _active_pairs(lower, upper):
        # (1 - wn) * (row m >= cm - t) against (1 - wm) * (row n <= cn + t):
        # (wn - wm) y <= (1 - wm)(cn + t) - (1 - wn)(cm - t)
        a, b, dw = (1.0 - wm) * cn - (1.0 - wn) * cm, 2.0 - (wm + wn), wn - wm
        if dw == 0.0:
            t_floor = max(t_floor, 0.5 * (cm - cn))
        elif b > 0.0:  # b = 0 (w_m + w_n rounds to 2) gives r = 0, a vacuous bound
            if dw > 0.0:
                add(0.0, b / dw, cl=a / b)
            else:
                add(0.0, b / -dw, cu=-a / b)
    top = upper[-1][1] if upper else -_INF
    return (top, tuple((cl, cu, q, r) for (q, r), (cl, cu) in terms.items())), t_floor


def _two_row_cells(w1, c1, w2, c2):
    """:func:`_hull_cell` of many cells of two rows each, (w1, c1) <= (w2, c2).

    With w1 < w2 both points are on both hulls; if c1 < c2 both stay when
    the hulls are cut, and the pairs (2, 1) and (1, 2) give a lower and an
    upper bound on y that share q = 0 and r.  If c1 >= c2, only point 2 is
    kept on the lower hull, point 1 on the upper one, and only the pair
    (1, 2) is left.  With w1 = w2 one point bounds each side, and their pair
    bounds t alone.  Returns the cells and the t floor.
    """
    same, rising = w1 == w2, c1 < c2
    both = rising & ~same
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r1, r2, b = 1.0 / w1, 1.0 / w2, 2.0 - (w1 + w2)
        pair_c = ((1.0 - w1) * c2 - (1.0 - w2) * c1) / b
        pair_r = b / (w2 - w1)
    inf = np.full(len(w1), _INF)
    slots = [
        (np.where(rising | same, c1, inf), np.where(same, c2, c1), 1.0 - w1, r1),
        (c2, np.where(both, c2, -inf), 1.0 - w2, r2),
        (pair_c, np.where(both, pair_c, -inf), np.zeros(len(w1)), pair_r),
    ]
    rows = zip(*[zip(*(v.tolist() for v in slot)) for slot in slots])
    terms = [row[:1] if s else row for row, s in zip(rows, same.tolist())]
    t_floor = float(np.max(np.where(same, 0.5 * (c2 - c1), 0.0)))
    return list(zip(np.maximum(c1, c2).tolist(), terms)), t_floor


def _hulls(ws, cs):
    """Lower and upper convex hull of points sorted by (w, c), cut to their
    parts of non-negative slope: the lower hull from its last lowest vertex
    on, the upper hull up to its first highest vertex.  Andrew's monotone
    chain; returns two lists of (w, c) ordered by w."""
    lower, upper = [], []
    for wj, cj in zip(ws, cs):
        if lower and lower[-1][0] == wj:  # equal w: lower keeps the least c, upper the greatest
            upper.pop()
        else:
            while len(lower) >= 2 and _turn(lower[-2], lower[-1], wj, cj) <= 0.0:
                lower.pop()
            lower.append((wj, cj))
        while len(upper) >= 2 and _turn(upper[-2], upper[-1], wj, cj) >= 0.0:
            upper.pop()
        upper.append((wj, cj))
    if lower:
        lowest = min(c for _, c in lower)
        lower = lower[max(j for j, (_, c) in enumerate(lower) if c == lowest):]
        highest = max(c for _, c in upper)
        upper = upper[:min(j for j, (_, c) in enumerate(upper) if c == highest) + 1]
    return lower, upper


def _turn(o, a, wb, cb) -> float:
    """Cross product (a - o) x (b - o): positive for a left turn."""
    return (a[0] - o[0]) * (cb - o[1]) - (a[1] - o[1]) * (wb - o[0])


def _active_pairs(lower, upper):
    """(upper row, lower row) pairs that attain max_m (c_m - w_m d) and
    min_n (c_n - w_n d) together for some d = p_i >= 0.

    As d grows from 0 the upper maximizer walks from the topmost vertex to
    the leftmost one and the lower minimizer from the lowest vertex to the
    rightmost one, each switching at the slope of the edge it leaves.
    """
    if not lower:
        return []
    iu, il = len(upper) - 1, 0
    pairs = [(upper[iu], lower[il])]
    while iu > 0 or il < len(lower) - 1:
        du = _slope(upper[iu - 1], upper[iu]) if iu > 0 else _INF
        dl = _slope(lower[il], lower[il + 1]) if il < len(lower) - 1 else _INF
        # a slope over a denormal gap in w overflows to inf, like the
        # sentinel of an exhausted side, which must then stay put
        if iu > 0 and du <= dl:
            iu -= 1
        if il < len(lower) - 1 and dl <= du:
            il += 1
        pairs.append((upper[iu], lower[il]))
    return pairs


def _slope(a, b) -> float:
    return (b[1] - a[1]) / (b[0] - a[0])


def _chain_pass(cells, total: float, t: float, lows=None, highs=None):
    """Forward pass: the least slack of max |row| <= t, and its slope in t.

    With P_i in [lo, hi], cell i bounds P_{i+1} = y to
    [max(lo, top - t, (cu - t - q hi) r), min(total, (cl + t - q lo) r)].
    A cell's slack is the width of that interval, and the last cell's is
    also the room its upper bound leaves above P_k = total.  The pass stops
    at the first cell of negative slack, so t is feasible iff the returned
    slack is >= 0; a cell whose bound on y is -+inf reports its slack in x
    instead (:func:`_x_miss`).  The slope is the derivative of the bounds
    that attain the slack, carried through the chain: lo is convex and hi
    concave in t, so the slack is concave and the slope a supergradient.

    A reciprocal r of zero weight is inf: the term is then +-inf, vacuous
    when the row's bound on x can be met and infeasible when it cannot, and
    inf * 0 = nan drops out of the comparisons, which is right for a bound
    met with equality; so does the nan of an absent side.  When
    ``lows``/``highs`` are given they receive the interval of every P_i.
    """
    lo = hi = d_lo = d_hi = 0.0
    slack, slope = _INF, 0.0
    for top, terms in cells:
        if lows is not None:
            lows.append(lo)
            highs.append(hi)
        y_lo, g_lo, y_hi, g_hi = top - t, -1.0, _INF, 0.0
        if y_lo < lo:
            y_lo, g_lo = lo, d_lo
        for cl, cu, q, r in terms:
            v = (cl + t - q * lo) * r
            if v < y_hi:
                y_hi, g_hi = v, (1.0 - q * d_lo) * r
            v = (cu - t - q * hi) * r
            if v > y_lo:
                y_lo, g_lo = v, (-1.0 - q * d_hi) * r
        y_top, g_top = y_hi, g_hi
        if y_hi > total:
            y_hi, g_hi = total, 0.0
        gap = y_hi - y_lo
        if gap < slack:
            if gap == -_INF:
                return _x_miss(terms, t, lo, hi, d_lo, d_hi)
            if gap < 0.0:
                return gap, g_hi - g_lo
            slack, slope = gap, g_hi - g_lo
        lo, hi, d_lo, d_hi = y_lo, y_hi, g_lo, g_hi
    if y_top - total < slack:
        slack, slope = y_top - total, g_top
    return slack, slope


def _x_miss(terms, t: float, lo: float, hi: float, d_lo: float, d_hi: float):
    """Slack and slope of a cell whose bound on y is infinite.

    A term of reciprocal r = inf (or whose product overflows) bounds
    x = P_i alone, by cl + t - q x >= 0 or cu - t - q x <= 0.  When the
    carried [lo, hi] cannot meet it, the bound on y is -+inf; the slack is
    then the least amount by which lo or hi misses such a bound, negative
    and concave in t like the finite slacks.
    """
    slack, slope = 0.0, 0.0
    for cl, cu, q, r in terms:
        miss = cl + t - q * lo
        if miss * r == -_INF and miss < slack:
            slack, slope = miss, 1.0 - q * d_lo
        miss = cu - t - q * hi
        if miss * r == _INF and -miss < slack:
            slack, slope = -miss, 1.0 + q * d_hi
    return (slack, slope) if slack < 0.0 else (-_INF, 0.0)


def _chain_weights(cells, total: float, t: float, lows, highs) -> np.ndarray:
    """Backward pass: from P_k = total, pick each P_i in the middle of the
    values that its stored interval, P_i <= P_{i+1} and cell i's hull rows
    allow.  A term with q = 1 - w > 0 is a hull row:
    c - t <= q x + (1 - q) y <= c + t."""
    k = len(cells)
    cum = np.empty(k + 1)
    cum[0], cum[k] = 0.0, total
    y = total
    for i in range(k - 1, 0, -1):
        x_lo, x_hi = lows[i], min(highs[i], y)
        for cl, cu, q, _ in cells[i][1]:
            if q > 0.0:
                rest = (1.0 - q) * y
                x_hi = min(x_hi, (cl + t - rest) / q)
                x_lo = max(x_lo, (cu - t - rest) / q)
        y = min(max(0.5 * (x_lo + x_hi), 0.0), y)
        cum[i] = y
    return np.diff(cum)
