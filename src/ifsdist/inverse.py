"""Collage distance D(p) = d_sup(T_p F, F) and its minimization over the
weight simplex C = {p >= 0, sum p = 1 - sum delta}.

With maps and offsets fixed, T_p F(x) - F(x) is affine in p at every x, so
D is a maximum of finitely many |affine| terms once the sup is reduced to a
finite evaluation set:

- exact mode (identity partitions): the difference is monotone in F on each
  cell, so the sup sits at cell endpoints and their left limits -- two
  constraint rows per cell, and D is the true sup;
- grid mode (general maps): rows are sampled on a uniform grid united with
  all map-image and target breakpoints, a right-value row at every point and
  a left-limit row at every point above 0, a lower bound on the true sup.
  The rows pull their points back with the operator's own kernel
  (:func:`ifsdist.ifs._pullback`), so each row is T_p F - F as ``apply``
  evaluates it, on either side of a jump, up to summation round-off.

Minimizing max_m |A_m p + b_m| over C is the linear program
min t s.t. -t <= A_m p + b_m <= t, p in C.  Exact mode solves it with a
linear-time chain solver: in the cumulative weights P_i = sum_{j<i} p_j the
two rows of cell i involve only P_i and P_{i+1}, so for a fixed t one
forward pass of interval propagation decides feasibility, bisection on t
finds the optimum and a backward pass recovers p*.  Grid mode solves it
with a self-contained dense two-phase simplex inside an active-set loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distfn import DistributionFunction
from .ifs import _TOL, _MapTable, _pullback, _structural_violations

__all__ = [
    "CollageProblem",
    "InverseSolution",
    "collage_distance",
    "solve_inverse",
    "collage_bound",
    "convexity_witness",
]


class LpError(ValueError):
    """A collage LP the solver could not finish.

    The grid-mode simplex raises it when its active-set loop does not close
    or a tableau turns infeasible or unbounded under round-off; the chain
    solver raises it if its forward pass rejects a t known to be feasible.
    It is a ValueError, so the CLI reports it and exits 1.
    """


class CollageProblem:
    """Inverse problem: fixed target F, maps and offsets; free weights p.

    ``mode`` is auto-selected: "exact" for identity partitions (endpoint
    reduction, exact sup), "grid" otherwise.  The constraint rows (A, b)
    with D(p) = max |A p + b| are assembled once at construction.
    """

    def __init__(self, target: DistributionFunction, maps, delta,
                 mode: str | None = None, grid_size: int = 512):
        structural = _structural_violations(maps, list(delta))
        if structural:
            raise ValueError("invalid collage problem: " + "; ".join(structural))
        self.target = target
        self.maps = tuple(maps)
        self.delta = np.asarray(delta, float).copy()
        self.delta.flags.writeable = False
        self.k = len(self.maps)
        self.weight_sum = 1.0 - float(np.sum(self.delta))
        if self.weight_sum <= 0.0:
            raise ValueError(
                f"1 - sum(delta) = {self.weight_sum} must be positive for a usable simplex"
            )
        identity = all(m.is_identity() for m in self.maps)
        if mode is None:
            mode = "exact" if identity else "grid"
        if mode == "exact" and not identity:
            raise ValueError("exact mode requires identity-partition maps")
        if mode not in ("exact", "grid"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.grid_size = int(grid_size)
        self._assemble()

    # -- constraint assembly ------------------------------------------------

    def _assemble(self) -> None:
        cum_delta = np.concatenate([[0.0], np.cumsum(self.delta)])
        if self.mode == "exact":
            self._assemble_exact(cum_delta)
            return
        target, table = self.target, _MapTable(self.maps)
        pts = [np.linspace(0.0, 1.0, self.grid_size), table._starts, table._ends]
        bps = np.asarray(target.breakpoints(), float)
        if bps.size:
            pts.append(bps)
            for m in self.maps:
                inside = bps[(bps >= m.a) & (bps < m.b)]
                if inside.size:
                    pts.append(m.slope * inside + m.intercept)
        xs = np.unique(np.concatenate(pts))
        xs = xs[(xs >= 0.0) & (xs <= 1.0)]
        # a right-value row at every x, then a left-limit row at every x > 0
        xl = xs[xs > 0.0]
        cell_r, pulled_r = _pullback(table, xs)
        cell_l, pulled_l = _pullback(table, xl, left=True)
        cell = np.concatenate([cell_r, cell_l])
        w = np.concatenate([target.eval_array(pulled_r), target.eval_left_array(pulled_l)])
        f = np.concatenate([target.eval_array(xs), target.eval_left_array(xl)])
        spot_x = np.concatenate([xs, xl])
        is_left = np.arange(len(cell)) >= len(xs)
        order = np.lexsort((is_left, spot_x))
        self._set_rows(cell[order], w[order], f[order], cum_delta,
                       zip(spot_x[order].tolist(), is_left[order].tolist()))

    def _assemble_exact(self, cum_delta: np.ndarray) -> None:
        """Rows at a_i and b_i- of every cell from one evaluation of F at each.

        Row 2i is T_p F - F at a_i, row 2i+1 its left limit at b_i:
        sum_{j<i} p_j + p_i w + sum_{j<i} delta_j - w with w = F(a_i), F(b_i-).
        """
        k = self.k
        a = np.array([m.a for m in self.maps])
        b = np.array([m.b for m in self.maps])
        w = np.empty(2 * k)
        w[0::2] = self.target.eval_array(a)
        w[1::2] = self.target.eval_left_array(b)
        if not np.all((w >= -_TOL) & (w <= 1.0 + _TOL)):  # the chain solver needs w in [0,1]
            raise ValueError("target values at the partition cuts must lie in [0,1]")
        spots = [spot for m in self.maps for spot in ((m.a, False), (m.b, True))]
        self._set_rows(np.repeat(np.arange(k), 2), w, w, cum_delta, spots)

    def _set_rows(self, cell: np.ndarray, w: np.ndarray, f: np.ndarray,
                  cum_delta: np.ndarray, spots) -> None:
        """Row m reads T_p F - F = sum_{j<i} p_j + p_i w + sum_{j<i} delta_j - f
        with i = cell[m], w = F at the preimage and f = F at the row's point."""
        self._A = (np.arange(self.k) < cell[:, None]).astype(float)
        self._A[np.arange(len(cell)), cell] = w
        self._b = cum_delta[cell] - f
        self._A.flags.writeable = False
        self._b.flags.writeable = False
        self.eval_spots = tuple(spots)  # (x, is_left_limit) per constraint row

    def residuals(self, p) -> np.ndarray:
        """Signed values T_p F - F at every constraint point, affine in p."""
        p = np.asarray(p, float)
        if p.shape != (self.k,):
            raise ValueError(f"expected weight vector of length {self.k}, got shape {p.shape}")
        return self._A @ p + self._b

    def __repr__(self) -> str:
        return f"CollageProblem(k={self.k}, mode={self.mode!r}, rows={len(self._b)})"


def collage_distance(problem: CollageProblem, p) -> float:
    """D(p) = max |T_p F - F| over the problem's evaluation set.

    Defined for any real weight vector, not only points of C; D is convex.
    """
    return float(np.max(np.abs(problem.residuals(p))))


def convexity_witness(problem: CollageProblem, p1, p2, lam: float):
    """(D(lam*p1 + (1-lam)*p2), lam*D(p1) + (1-lam)*D(p2)) for property checks."""
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    if p1.shape != p2.shape:
        raise ValueError("weight vectors must have equal length")
    lhs = collage_distance(problem, lam * p1 + (1.0 - lam) * p2)
    rhs = lam * collage_distance(problem, p1) + (1.0 - lam) * collage_distance(problem, p2)
    return lhs, rhs


def collage_bound(epsilon: float, c: float) -> float:
    """Fixed-point distance guarantee epsilon/(1-c) from a collage distance."""
    if epsilon < 0.0:
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


def solve_inverse(problem: CollageProblem, tol: float = 1e-9) -> InverseSolution:
    """Minimize D over C as the LP  min t : |A p + b| <= t, p in C.

    Exact mode uses the chain solver (forward passes of interval propagation,
    bisection on t to within 1e-13); ``iterations`` counts its forward passes.
    Grid mode uses the active-set simplex; ``iterations`` counts its pivots,
    and the simplex's p* is clipped at 0 and rescaled onto the weight simplex.
    Either way D(p*) is the true constrained minimum of the assembled rows up
    to floating-point round-off.  ``tol`` must be positive and is otherwise
    unused.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if problem.mode == "exact":
        p, iterations = _solve_chain(problem._A, problem._b, problem.weight_sum)
    else:
        p, _, iterations = _solve_minimax_lp(problem._A, problem._b, problem.weight_sum)
        # the simplex leaves p* up to ~1e-11 off the weight simplex
        p = np.maximum(p, 0.0)
        p *= problem.weight_sum / p.sum()
    d_star = collage_distance(problem, p)
    res = np.abs(problem.residuals(p))
    active = np.nonzero(res >= d_star - 1e-8)[0]
    return InverseSolution(
        p_star=p,
        d_star=d_star,
        iterations=iterations,
        mode=problem.mode,
        active_constraints=list(active),
    )


# ---------------------------------------------------------------------------
# chain solver for identity partitions

# Bisection on t stops once the bracket is this narrow.
_CHAIN_TOL = 1e-13


def _solve_chain(a_mat: np.ndarray, b_vec: np.ndarray, weight_sum: float):
    """min t s.t. |A p + b| <= t, p >= 0, sum p = weight_sum, for exact-mode rows.

    Rows 2i and 2i+1 belong to cell i and read P_i + w p_i - c with
    P_i = sum_{j<i} p_j, w = A[row, i] in [0,1] and c = -b[row].  For a fixed
    t, :func:`_chain_pass` carries the interval of feasible P_i from cell to
    cell; bisection finds the least feasible t, and :func:`_chain_weights`
    walks back through the stored intervals to a feasible p.
    Returns (p, number of forward passes).
    """
    k = a_mat.shape[1]
    # w of rows 2i and 2i+1 as row i; round-off may leave it a few ulps outside [0,1]
    w = np.clip(a_mat[np.arange(2 * k), np.repeat(np.arange(k), 2)], 0.0, 1.0).reshape(k, 2)
    c = -b_vec.reshape(k, 2)

    # upper end of the bracket: D at the weights F(a_{i+1}) - F(a_i)
    guess = np.maximum(np.diff(np.append(w[:, 0], 1.0)), 0.0)  # sums to at least 1 - F(0) = 1
    guess *= weight_sum / guess.sum()
    # D(guess) is feasible; the margin keeps round-off from rejecting it
    t_hi = float(np.max(np.abs(a_mat @ guess + b_vec))) * (1.0 + 1e-9) + 1e-15

    # the two rows of a cell are interchangeable: order them by w
    order = np.argsort(w, axis=1, kind="stable")
    (w1, w2), (c1, c2) = np.take_along_axis(w, order, axis=1).T, np.take_along_axis(c, order, axis=1).T
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.stack([w1, w2, w2 - w1])
    cells = list(zip(*(v.tolist() for v in (w1, w2, c1, c2, *inv, 1.0 - w1, 1.0 - w2, c2 - c1))))
    if not _chain_pass(cells, weight_sum, t_hi):
        raise LpError(f"chain solver rejected the feasible bound t = {t_hi}")
    passes = 1
    t_lo = 0.0
    while t_hi - t_lo > _CHAIN_TOL:
        t = 0.5 * (t_lo + t_hi)
        passes += 1
        if _chain_pass(cells, weight_sum, t):
            t_hi = t
        else:
            t_lo = t
    lows, highs = [], []
    passes += 1
    _chain_pass(cells, weight_sum, t_hi, lows, highs)
    return _chain_weights(cells, weight_sum, t_hi, lows, highs), passes


def _chain_pass(cells, total: float, t: float, lows=None, highs=None) -> bool:
    """Forward pass: is max |row| <= t feasible?

    With x = P_i in [lo, hi] and p = p_i >= 0, cell i asks
    |x + w p - c| <= t for both of its rows and P_{i+1} = x + p <= total.
    Eliminating x leaves an interval [p_lo, p_hi] of p, and P_{i+1} ranges
    over [y_lo, y_hi], reached at p_lo and p_hi because both ends are
    non-decreasing in p.  Reciprocals of zero are inf; inf * 0 = nan drops
    out of the comparisons, which is right for a constraint 0 p <= 0.
    When ``lows``/``highs`` are given they receive the interval of every P_i.
    """
    lo = hi = 0.0
    two_t = 2.0 * t
    for w1, w2, c1, c2, r1, r2, rd, q1, q2, cd in cells:
        if lows is not None:
            lows.append(lo)
            highs.append(hi)
        p_lo, p_hi = 0.0, total - lo
        v = (c1 + t - lo) * r1          # w1 p <= c1 + t - lo
        if v < p_hi:
            p_hi = v
        v = (c2 + t - lo) * r2          # w2 p <= c2 + t - lo
        if v < p_hi:
            p_hi = v
        v = (cd + two_t) * rd           # (w2 - w1) p <= c2 - c1 + 2t
        if v < p_hi:
            p_hi = v
        v = (c1 - t - hi) * r1          # w1 p >= c1 - t - hi
        if v > p_lo:
            p_lo = v
        v = (c2 - t - hi) * r2          # w2 p >= c2 - t - hi
        if v > p_lo:
            p_lo = v
        v = (cd - two_t) * rd           # (w2 - w1) p >= c2 - c1 - 2t
        if v > p_lo:
            p_lo = v
        if p_lo > p_hi:
            return False
        y_lo = lo + p_lo
        v = c1 - t + q1 * p_lo
        if v > y_lo:
            y_lo = v
        v = c2 - t + q2 * p_lo
        if v > y_lo:
            y_lo = v
        y_hi = hi + p_hi
        v = c1 + t + q1 * p_hi
        if v < y_hi:
            y_hi = v
        v = c2 + t + q2 * p_hi
        if v < y_hi:
            y_hi = v
        if total < y_hi:
            y_hi = total
        if y_lo > y_hi:
            return False
        lo, hi = y_lo, y_hi
    return hi >= total


def _chain_weights(cells, total: float, t: float, lows, highs) -> np.ndarray:
    """Backward pass: from P_k = total, pick each P_i in the middle of the
    values that its stored interval, P_i <= P_{i+1} and cell i's rows allow."""
    k = len(cells)
    cum = np.empty(k + 1)
    cum[0], cum[k] = 0.0, total
    y = total
    for i in range(k - 1, 0, -1):
        w1, w2, c1, c2, _, _, _, q1, q2, _ = cells[i]
        x_lo, x_hi = lows[i], min(highs[i], y)
        for w, c, q in ((w1, c1, q1), (w2, c2, q2)):
            if q > 0.0:  # (1 - w) x + w y within c +- t
                x_lo = max(x_lo, (c - t - w * y) / q)
                x_hi = min(x_hi, (c + t - w * y) / q)
        y = min(max(0.5 * (x_lo + x_hi), 0.0), y)
        cum[i] = y
    return np.diff(cum)


# ---------------------------------------------------------------------------
# dense two-phase simplex for the minimax LP


def _solve_minimax_lp(a_mat: np.ndarray, b_vec: np.ndarray, weight_sum: float):
    """min t s.t. -t <= A p + b <= t, p >= 0, sum p = weight_sum.

    Solved by an active-set outer loop: the LP is solved on a working subset
    of rows and rows violating the current optimum are pulled in until none
    remain.  A minimax optimum has few active rows, so the inner dense
    simplex stays small even for thousands of sampled constraints.
    Returns (p, t, total pivot count).
    """
    m = len(b_vec)
    working = np.unique(np.concatenate([
        np.argsort(np.abs(b_vec))[-16:],
        np.linspace(0, m - 1, min(m, 64)).astype(int),
    ]))
    pivots = 0
    for _ in range(200):
        p, t, piv = _minimax_lp_once(a_mat[working], b_vec[working], weight_sum)
        pivots += piv
        res = np.abs(a_mat @ p + b_vec)
        violated = np.nonzero(res > t + 1e-11)[0]
        if violated.size == 0:
            return p, t, pivots
        worst = violated[np.argsort(res[violated])[-32:]]
        working = np.unique(np.concatenate([working, worst]))
    raise LpError("active-set loop failed to close")


def _minimax_lp_once(a_mat: np.ndarray, b_vec: np.ndarray, weight_sum: float):
    """Two-phase dense simplex on the full row set given.

    Bland's rule prevents cycling on the (heavily degenerate) minimax
    constraints; artificial variables are introduced only for rows whose
    slack cannot serve as the initial basis.
    """
    m, k = a_mat.shape
    nvar = k + 1 + 2 * m  # p, t, slacks
    rows = 2 * m + 1
    tab = np.zeros((rows, nvar + 1))
    # A p - t + s = -b   and   -A p - t + s' = b
    tab[:m, :k] = a_mat
    tab[m:2 * m, :k] = -a_mat
    tab[:2 * m, k] = -1.0
    slack_col = np.concatenate([np.arange(k + 1, k + 1 + 2 * m), [-1]])
    tab[np.arange(2 * m), slack_col[:-1]] = 1.0
    tab[:m, -1] = -b_vec
    tab[m:2 * m, -1] = b_vec
    tab[2 * m, :k] = 1.0
    tab[2 * m, -1] = weight_sum

    neg = tab[:, -1] < 0.0
    tab[neg] *= -1.0

    # phase 1: slack columns still holding +1 serve as basis, the rest
    # (sign-flipped rows and the equality row) get artificials
    basis = np.empty(rows, dtype=int)
    needs_artificial = []
    for r in range(rows):
        sc = slack_col[r]
        if sc >= 0 and tab[r, sc] == 1.0:
            basis[r] = sc
        else:
            needs_artificial.append(r)
    n_art = len(needs_artificial)
    art_block = np.zeros((rows, n_art))
    for j, r in enumerate(needs_artificial):
        art_block[r, j] = 1.0
        basis[r] = nvar + j
    tab = np.hstack([tab[:, :nvar], art_block, tab[:, -1:]])
    cost1 = np.zeros(nvar + n_art)
    cost1[nvar:] = 1.0
    piv1 = _simplex_core(tab, basis, cost1)
    if cost1[basis] @ tab[:, -1] > 1e-7:
        raise LpError("phase-1 optimum is positive: LP infeasible")
    _expel_artificials(tab, basis, nvar)

    # phase 2 on the original variables only
    keep_rows = basis < nvar
    tab = tab[keep_rows][:, list(range(nvar)) + [-1]]
    basis = basis[keep_rows]
    cost2 = np.zeros(nvar)
    cost2[k] = 1.0
    piv2 = _simplex_core(tab, basis, cost2)

    x = np.zeros(nvar)
    x[basis] = tab[:, -1]
    return x[:k], float(x[k]), piv1 + piv2


def _simplex_core(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                  maxiter: int = 200_000) -> int:
    rows, cols = tab.shape
    n = cols - 1
    for it in range(maxiter):
        reduced = cost[:n] - cost[basis] @ tab[:, :n]
        candidates = np.nonzero(reduced < -1e-9)[0]
        if candidates.size == 0:
            return it
        j = int(candidates[0])  # Bland: smallest entering index
        col = tab[:, j]
        positive = col > 1e-9
        if not positive.any():
            raise LpError("unbounded LP")
        ratios = np.full(rows, np.inf)
        ratios[positive] = tab[positive, -1] / col[positive]
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12)[0]
        r = int(ties[np.argmin(basis[ties])])  # Bland: smallest leaving variable
        pivot = tab[r, j]
        tab[r] /= pivot
        colv = tab[:, j].copy()
        colv[r] = 0.0
        tab -= np.outer(colv, tab[r])
        basis[r] = j
    raise LpError("simplex iteration limit exceeded")


def _expel_artificials(tab: np.ndarray, basis: np.ndarray, nvar: int) -> None:
    """Pivot zero-level artificial variables out of the basis where possible."""
    for r in range(len(basis)):
        if basis[r] < nvar:
            continue
        swap = np.nonzero(np.abs(tab[r, :nvar]) > 1e-9)[0]
        if swap.size == 0:
            continue  # redundant row, dropped by the caller
        j = int(swap[0])
        pivot = tab[r, j]
        tab[r] /= pivot
        colv = tab[:, j].copy()
        colv[r] = 0.0
        tab -= np.outer(colv, tab[r])
        basis[r] = j
