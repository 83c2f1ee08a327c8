"""Weighted IFS operator on distribution functions: validity, application,
iteration, contractivity, fixed points, and the parameter perturbation bound.

A system is k increasing affine maps w_i whose target intervals partition
[0,1), weights p_i >= 0, and k-1 offsets delta_j with
sum(p) + sum(delta) = 1.  The operator sends F to

    (T F)(x) = p_i F(w_i^{-1}(x)) + sum_{j<i} p_j + sum_{j<i} delta_j

for x in the i-th target interval, with T F(1) = 1.  Iterates are evaluated
exactly by walking the affine pullback chain of each query point, so no
interpolation error accumulates across iterations.

Offsets may be negative only for identity-partition systems (every map is
the identity on its own cell), where delta_j >= -min(p_j, p_{j+1}) keeps the
operator monotone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import ceil, log
from typing import NamedTuple

import numpy as np

from .distfn import DistributionFunction, UniformDF, _merged_points, _nonfinite_violation

__all__ = [
    "AffineMap",
    "IfsSystem",
    "IteratedDF",
    "FixedPointResult",
    "validate",
    "apply",
    "iterate_exact",
    "contractivity",
    "fixed_point",
    "perturbation_bound",
    "default_mesh",
    "system_to_json",
    "system_from_json",
    "write_system_json",
    "read_system_json",
]

_TOL = 1e-12
# Most breakpoints an iterate keeps after each pullback step, and the number
# of intervals of the default mesh of a contractive system.
_CAP = 4096
# Most steps ``fixed_point`` takes: the depth of the iterate it returns, so
# each of its evaluations walks at most this many pullback steps per point.
_MAX_DEPTH = 10**5


@dataclass(frozen=True)
class AffineMap:
    """Increasing affine bijection from [a,b) onto a target subinterval of [0,1]."""

    a: float
    b: float
    slope: float
    intercept: float

    @property
    def c(self) -> float:
        """Target interval start, w(a)."""
        return self.slope * self.a + self.intercept

    @property
    def d(self) -> float:
        """Target interval end, w(b)."""
        return self.slope * self.b + self.intercept

    def is_identity(self) -> bool:
        return self.slope == 1.0 and self.intercept == 0.0

    @staticmethod
    def identity(a: float, b: float) -> "AffineMap":
        return AffineMap(float(a), float(b), 1.0, 0.0)

    @staticmethod
    def from_intervals(source, target) -> "AffineMap":
        """Affine map sending [a,b) onto [c,d); both increasing intervals."""
        a, b = float(source[0]), float(source[1])
        c, d = float(target[0]), float(target[1])
        if not b > a:
            raise ValueError(f"empty source interval [{a},{b})")
        if not d > c:
            raise ValueError(f"empty target interval [{c},{d})")
        slope = (d - c) / (b - a)
        return AffineMap(a, b, slope, c - slope * a)


class _MapTable:
    """The maps w_i(x) = slope_i x + intercept_i on [a_i, b_i), ordered by
    target start, as four arrays; the only store of map data.

    Target starts and ends and the mask of identity maps are derived from
    the four arrays; :func:`_pullback` reads them.  The :class:`AffineMap`
    tuple ``maps`` is built only when asked for.
    """

    def __init__(self, a, b, slope, intercept):
        self.a, self.b, self.slope, self.intercept = (
            np.asarray(v, float) for v in (a, b, slope, intercept))
        with np.errstate(all="ignore"):  # non-finite parameters are reported by violations()
            self.starts = self.slope * self.a + self.intercept
            self.ends = self.slope * self.b + self.intercept
        self.exact = (self.slope == 1.0) & (self.intercept == 0.0)

    @classmethod
    def of(cls, maps) -> "_MapTable":
        """``maps`` itself if it is a table, else the table of its AffineMaps."""
        if isinstance(maps, _MapTable):
            return maps
        rows = np.array([(m.a, m.b, m.slope, m.intercept) for m in maps], float)
        return cls(*rows.reshape(-1, 4).T)

    @classmethod
    def on_cells(cls, cuts, identity: bool) -> "_MapTable":
        """One map onto each cell [cuts_i, cuts_{i+1}) of strictly increasing
        cuts, from the cell itself (the identity: x/x = 1 and c - c = 0
        exactly) or from [0,1), as ``AffineMap.from_intervals`` computes it."""
        c, d = np.asarray(cuts[:-1], float), np.asarray(cuts[1:], float)
        a, b = (c, d) if identity else (np.zeros_like(c), np.ones_like(c))
        slope = (d - c) / (b - a)
        return cls(a, b, slope, c - slope * a)

    @property
    def k(self) -> int:
        return len(self.a)

    @cached_property
    def maps(self) -> tuple:
        return tuple(map(AffineMap, self.a.tolist(), self.b.tolist(),
                         self.slope.tolist(), self.intercept.tolist()))

    def images(self, xs) -> np.ndarray:
        """w_i(x) for every x and every map i whose source [a_i, b_i) holds x,
        in map order: map i's images form one run, in increasing x, and the
        runs follow the table's order.

        IEEE rounding is monotone, so each run is non-decreasing; as the maps
        are ordered by target, the whole result is sorted unless two targets
        overlap (validation lets them, by up to 1e-12).
        """
        xs = np.sort(np.asarray(xs, float))
        lo, hi = np.searchsorted(xs, self.a), np.searchsorted(xs, self.b)
        counts = np.maximum(hi - lo, 0)
        # map i takes xs[lo_i : lo_i + counts_i]; the index array is freed
        # before the products are formed, so at most two result-sized arrays live
        at = np.repeat(lo - np.cumsum(counts) + counts, counts)
        at += np.arange(at.size)
        out = xs[at]
        del at
        out *= np.repeat(self.slope, counts)
        out += np.repeat(self.intercept, counts)
        return out

    def violations(self, delta) -> list[str]:
        """Checks on the maps and offsets that do not involve the weights.

        Every range test is written so that NaN fails it (``not x > 0``
        rejects a NaN slope), as the finiteness check reports NaN anyway.
        """
        k = self.k
        if k < 1:
            return ["system has no maps"]
        out = []
        if len(delta) != k - 1:
            out.append(f"expected {k - 1} offsets, got {len(delta)}")
        a, b, slope, starts, ends = self.a, self.b, self.slope, self.starts, self.ends
        for name, values in (("offsets", delta),
                             ("map parameters", np.column_stack([a, b, slope, self.intercept]))):
            problem = _nonfinite_violation(name, values)
            if problem:
                out.append(problem)
        with np.errstate(all="ignore"):
            per_map = [
                (~(slope > 0.0), "slope {slope} is not positive"),
                (~(b > a), "empty source interval [{a},{b})"),
                ((a < -_TOL) | (b > 1.0 + _TOL), "source [{a},{b}) leaves [0,1]"),
                ((starts < -_TOL) | (ends > 1.0 + _TOL), "target [{c},{d}) leaves [0,1]"),
                # a positive slope on a non-empty source can still round to ends == starts
                ((slope > 0.0) & (b > a) & ~(ends > starts), "target [{c},{d}) is empty"),
            ]
            gap = starts[1:] - ends[:-1]
        failed = np.column_stack([mask for mask, _ in per_map])
        for i, check in zip(*np.nonzero(failed)):  # by map, then by check
            out.append(f"map {i}: " + per_map[check][1].format(
                a=a[i], b=b[i], c=starts[i], d=ends[i], slope=slope[i]))
        if np.any(starts[1:] <= starts[:-1]):
            out.append("maps must be ordered by strictly increasing target start")
            return out
        if abs(starts[0]) > _TOL:
            out.append(f"first target must start at 0, got {float(starts[0])}")
        if abs(ends[-1] - 1.0) > _TOL:
            out.append(f"last target must end at 1, got {float(ends[-1])}")
        if abs(a[0]) > _TOL:
            out.append(f"first source must start at 0, got {float(a[0])}")
        if abs(b[-1] - 1.0) > _TOL:
            out.append(f"last source must end at 1, got {float(b[-1])}")
        for i in np.flatnonzero((gap > _TOL) | (gap < -_TOL)):
            g = float(gap[i])
            out.append(f"targets {i} and {i + 1} leave a gap of {g}" if g > 0.0
                       else f"targets {i} and {i + 1} overlap by {-g}")
        return out


class IfsSystem:
    """Immutable bundle of maps, weights and offsets defining the operator.

    ``maps`` is a sequence of :class:`AffineMap` (or the map table that the
    package's constructions build from their cuts).  ``identity_partition`` is
    derived: true iff every map is the identity on its own interval and the
    maps and offsets pass the structural checks (so the intervals partition
    [0,1)).  The checks run once, on first use.  Instances are safe to share
    across threads.
    """

    def __init__(self, maps, p, delta):
        self._table = _MapTable.of(maps)
        self.p = np.asarray(p, float).copy()
        self.delta = np.asarray(delta, float).copy()
        self.p.flags.writeable = False
        self.delta.flags.writeable = False
        k = self._table.k
        # offsets[i] = sum_{j<i} p_j + sum_{j<i} delta_j
        off = np.zeros(k)
        if k > 1 and len(self.p) == k and len(self.delta) == k - 1:
            off[1:] = np.cumsum(self.p[:-1]) + np.cumsum(self.delta)
        self._offsets = off

    @property
    def k(self) -> int:
        return self._table.k

    @property
    def maps(self) -> tuple:
        return self._table.maps

    @cached_property
    def _structural(self) -> list[str]:
        return self._table.violations(self.delta)

    @cached_property
    def identity_partition(self) -> bool:
        return bool(self._table.exact.all()) and not self._structural

    @cached_property
    def _violations(self) -> list[str]:
        return self._structural + _weight_violations(self)

    def violations(self) -> list[str]:
        return list(self._violations)

    def require_valid(self) -> None:
        v = self.violations()
        if v:
            raise ValueError("invalid IFS system: " + "; ".join(v))

    def __repr__(self) -> str:
        return (
            f"IfsSystem(k={self.k}, identity_partition={self.identity_partition})"
        )


def _weight_violations(system: IfsSystem) -> list[str]:
    """Checks that involve the weights, after the structural ones."""
    out = []
    k = system.k
    p, delta = system.p, system.delta
    if len(p) != k:
        out.append(f"expected {k} weights, got {len(p)}")
        return out
    problem = _nonfinite_violation("weights", p)
    if problem:
        out.append(problem)
    if np.any(p < -_TOL):
        out.append(f"negative weight: min p = {p.min()}")
    total = float(np.sum(p) + np.sum(delta))
    if abs(total - 1.0) > _TOL:
        out.append(f"sum(p) + sum(delta) = {total}, expected 1")
    if system.identity_partition:
        floor = -np.minimum(p[:-1], p[1:])
        for j in np.flatnonzero(delta < floor - _TOL):
            out.append(
                f"offset delta[{j}] = {delta[j]} below -min(p_{j}, p_{j + 1}) = {floor[j]}"
            )
    else:
        if np.any(delta < -_TOL):
            out.append("negative offsets require an identity-partition system")
    return out


def validate(system: IfsSystem) -> list[str]:
    """All invariant violations of a system; an empty list means valid."""
    return system.violations()


def contractivity(system: IfsSystem) -> float:
    """Contractivity constant c = max_i p_i of the operator."""
    system.require_valid()
    return float(np.max(system.p))


def perturbation_bound(p, p_star, c: float) -> float:
    """Upper bound (1/(1-c)) * sum |p_j - p*_j| on the fixed-point distance."""
    p = np.asarray(p, float)
    p_star = np.asarray(p_star, float)
    if p.shape != p_star.shape:
        raise ValueError("weight vectors must have equal length")
    for name, values in (("p", p), ("p_star", p_star)):
        problem = _nonfinite_violation(name, values)
        if problem:
            raise ValueError(problem)
    if not 0.0 <= c < 1.0:
        raise ValueError(f"contractivity constant must satisfy 0 <= c < 1, got {c}")
    return float(np.sum(np.abs(p - p_star)) / (1.0 - c))


# ---------------------------------------------------------------------------
# exact evaluation of operator iterates via affine pullback chains


def _pullback(table: _MapTable, ys: np.ndarray, left: bool = False):
    """Cell index and preimage of every point: returns (idx, w_idx^{-1}(y)).

    Each point belongs to the map whose target interval [c_i, d_i) holds it,
    and a point on a target start pulls back to that map's source start.
    For left limits (``left=True``) a point sitting exactly on a target start
    belongs to the interval to its left and pulls back to that map's source
    end, as does a point on its own map's target end (x = 1 on the last).
    The map arithmetic can land a few ulps on either side of the true
    preimage; when that preimage is a breakpoint of the function being
    pulled back, the side decides the value.  So right values resolve
    at-or-above the true preimage (right continuity) and left limits below
    it, but never onto or past the end of the half-open source: right values
    stay below b_i and left limits above a_i.  Identity maps pull back
    exactly and are left alone.
    """
    starts = table.starts
    idx = np.searchsorted(starts, ys, side="right") - 1
    np.clip(idx, 0, len(starts) - 1, out=idx)
    on_start = starts[idx] == ys
    if left:
        on_start &= idx > 0
        idx -= on_start
        on_start |= table.ends[idx] == ys
    a, b = table.a[idx], table.b[idx]
    pulled = (ys - table.intercept[idx]) / table.slope[idx]
    inexact = ~table.exact[idx]
    if np.any(inexact):
        step = 4.0 * np.spacing(np.maximum(np.abs(pulled), 1e-300))
        nudged = (np.maximum(pulled - step, np.nextafter(a, 1.0)) if left
                  else np.minimum(pulled + step, np.nextafter(b, 0.0)))
        pulled = np.where(inexact, nudged, pulled)
    pulled = np.clip(pulled, a, b)
    return idx, np.where(on_start, b if left else a, pulled)


def _walk(system: IfsSystem, xs: np.ndarray, depth: int, left: bool = False):
    """Pullback chain: returns (A, B, y) with T^depth u (x) = A * u(y) + B,
    or the left limit of T^depth u at x when ``left``, with u's left limit at y."""
    y = np.asarray(xs, float).astype(float, copy=True)
    amp = np.ones_like(y)
    off = np.zeros_like(y)
    for _ in range(depth):
        idx, y = _pullback(system._table, y, left)
        off += amp * system._offsets[idx]
        amp = amp * system.p[idx]
    return amp, off, y


class IteratedDF(DistributionFunction):
    """Lazy, exactly evaluatable iterate T^s u0 of a valid system."""

    def __init__(self, system: IfsSystem, u0: DistributionFunction, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        system.require_valid()
        self.system = system
        self.u0 = u0
        self.depth = int(depth)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        amp, off, y = _walk(self.system, xs, self.depth)
        vals = amp * self.u0.eval_array(y) + off
        # endpoint identities hold exactly up to float summation dust
        xs = np.asarray(xs, float)
        vals[xs >= 1.0] = 1.0
        return vals

    def eval_left_array(self, xs: np.ndarray) -> np.ndarray:
        amp, off, y = _walk(self.system, xs, self.depth, left=True)
        vals = amp * self.u0.eval_left_array(y) + off
        # 0 by convention at x <= 0, where the preimages sit just above a_0
        vals[np.asarray(xs, float) <= 0.0] = 0.0
        return vals

    def breakpoints(self) -> np.ndarray:
        """The start's breakpoints and the cell boundaries, carried through
        ``depth`` map steps.

        Past _CAP (4096) points after a step, a subset evenly spaced by rank
        plus the cell boundaries is kept, and only the kept ranks are
        evaluated; the set is then incomplete and a sup taken over it
        (``sup_distance``, ``simulate --exact-sup``) is a lower bound.
        """
        return _image_breakpoints(self.system._table, self.u0, self.depth)

    def __repr__(self) -> str:
        return f"IteratedDF(depth={self.depth}, k={self.system.k})"


def _image_breakpoints(table: _MapTable, u0: DistributionFunction, depth: int) -> np.ndarray:
    """u0's breakpoints through ``depth`` map steps.  A step unites the images
    with the cell boundaries, and past _CAP points keeps the ranks
    ``np.linspace(0, N - 1, _CAP).astype(int)`` of the N united points plus
    the boundaries.  A capped step with more than 2 _CAP images evaluates only
    the ranks it keeps (``_kept_ranks``), any other unites all images; both
    keep the same points.  A sup over a capped set is a lower bound."""
    boundary = np.unique(np.concatenate([table.starts, table.ends]))
    bps = np.asarray(u0.breakpoints(), float)
    for _ in range(depth):
        kept = _kept_ranks(table, bps, boundary)
        if kept is None:
            bps = np.unique(np.concatenate([boundary, table.images(bps)]))
            if bps.size <= _CAP:
                continue
            kept = bps[np.linspace(0, bps.size - 1, _CAP).astype(int)]
        bps = np.unique(np.concatenate([kept, boundary]))
    return bps[(bps > 0.0) & (bps < 1.0)]


def _kept_ranks(table: _MapTable, xs: np.ndarray, boundary: np.ndarray):
    """The points at ranks ``np.linspace(0, N - 1, _CAP).astype(int)`` of the
    N sorted distinct points of ``boundary`` (sorted, distinct) and
    ``table.images(xs)``, bit for bit, evaluated at those ranks only; None
    when there are at most 2 _CAP images, or when a run starts below the
    previous run's end (overlapping targets), so that the images are not sorted.

    Image j is ``x * slope + intercept`` of its run's x, the two ufuncs of
    ``images``.  Equal neighbours are found by evaluating both images at every
    x-gap where rounding could make them equal.  A boundary value's place
    among the images comes from a bisection of the run whose first image lies
    below it, in a fixed ceil(log2(longest run + 1)) steps.
    """
    xs = np.sort(xs)
    lo = np.searchsorted(xs, table.a)
    counts = np.searchsorted(xs, table.b) - lo
    held = counts > 0
    lo, counts = lo[held], counts[held]
    slope, intercept = table.slope[held], table.intercept[held]
    stops = np.cumsum(counts)
    total = int(stops[-1]) if stops.size else 0
    if total <= 2 * _CAP:
        return None
    last = lo + counts - 1
    prod = np.stack([xs[lo], xs[last]]) * slope
    ends = prod + intercept
    if np.any(ends[0, 1:] < ends[1, :-1]):
        return None
    starts = stops - counts

    def image(j):
        i = np.searchsorted(stops, j, side="right")
        return xs[lo[i] + j - starts[i]] * slope[i] + intercept[i]

    # an image is off by at most half an ulp of its product and of itself, so
    # a run's images across an x-gap g can be equal only if g * slope <= err
    err = np.spacing(np.abs(prod).max(axis=0)) + np.spacing(np.abs(ends).max(axis=0))
    small = np.flatnonzero(np.diff(xs) <= 2.0 * np.max(err / slope))
    first = np.searchsorted(small, lo)
    per_run = np.searchsorted(small, last) - first  # the small gaps of run i's own slice
    run = np.repeat(np.arange(lo.size), per_run)
    gap = small[np.repeat(first - np.cumsum(per_run) + per_run, per_run) + np.arange(run.size)]
    after = starts[run] + gap - lo[run] + 1
    # the images equal to their predecessor, within runs and where runs join
    repeats = np.sort(np.concatenate([after[image(after - 1) == image(after)],
                                      starts[1:][ends[0, 1:] == ends[1, :-1]]]))

    # pos = the number of images below each boundary value
    run = np.maximum(np.searchsorted(ends[0], boundary) - 1, 0)
    below = np.zeros_like(run)
    above = np.where(ends[0, run] < boundary, counts[run], 0)
    for _ in range(int(counts.max()).bit_length()):
        mid = (below + above) // 2
        active = below < above
        up = active & (image(starts[run] + np.minimum(mid, counts[run] - 1)) < boundary)
        below = np.where(up, mid + 1, below)
        above = np.where(active & ~up, mid, above)
    pos = starts[run] + below
    new = (pos == total) | (image(np.minimum(pos, total - 1)) != boundary)
    # ranks in the union of the distinct images and the new boundary values
    inserted = pos[new] - np.searchsorted(repeats, pos[new]) + np.arange(np.count_nonzero(new))
    keep = np.linspace(0, total - repeats.size + inserted.size - 1, _CAP).astype(int)
    before = np.searchsorted(inserted, keep)
    is_boundary = np.append(inserted, -1)[before] == keep
    out = np.empty(_CAP)
    out[is_boundary] = boundary[new][before[is_boundary]]
    distinct = keep[~is_boundary] - before[~is_boundary]
    out[~is_boundary] = image(distinct + np.searchsorted(repeats - np.arange(repeats.size),
                                                         distinct, side="right"))
    return out


def apply(system: IfsSystem, f: DistributionFunction) -> IteratedDF:
    """T f for a valid system; the result is again a distribution function."""
    return IteratedDF(system, f, depth=1)


def iterate_exact(system: IfsSystem, u0: DistributionFunction, s: int) -> IteratedDF:
    """Lazy T^s u0, evaluatable exactly at any point."""
    return IteratedDF(system, u0, depth=s)


def default_mesh(system: IfsSystem) -> np.ndarray:
    """Evaluation mesh containing all target-interval endpoints.

    Identity-partition systems keep their breakpoints at the same boundaries
    under iteration, so a modest uniform refinement suffices; contractive
    maps spread breakpoints densely and get a grid of _CAP + 1 points.
    """
    table = system._table
    return _merged_points(129 if system.identity_partition else _CAP + 1, table.starts, table.ends)


class FixedPointResult(NamedTuple):
    df: IteratedDF
    iterations: int
    error_bound: float


def fixed_point(system: IfsSystem, tol: float = 1e-9) -> FixedPointResult:
    """Approximate the unique fixed point F* by T^s u from the uniform start.

    T is a sup-norm contraction with constant c = max p_i < 1, and u and F*
    both lie in [0,1], so |T^s u - F*| <= c^s everywhere; s is the least
    s >= 1 with c^s <= tol, and error_bound = c^s.  The returned df is the
    exact iterate ``iterate_exact(system, UniformDF(), iterations)``, so the
    bound holds at every x, for values and left limits alike.  The call
    itself is cheap; each evaluation walks ``iterations`` pullback steps per
    point: at s = 2062, 1000 points take 0.1-0.2 s and a ``sup_distance``
    to ``UniformDF()`` 1-1.5 s on a 2-core machine.  An s above ``_MAX_DEPTH``
    (c close to 1) raises ValueError.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    c = contractivity(system)
    if c >= 1.0:
        raise ValueError(f"system is not contractive: max weight = {c}")
    s = 1 if c == 0.0 or tol >= 1.0 else ceil(log(tol) / log(c))
    # the logarithms round, so settle s on the powers themselves
    while c**s > tol:
        s += 1
    while s > 1 and c ** (s - 1) <= tol:
        s -= 1
    if s > _MAX_DEPTH:
        raise ValueError(f"c = {c} needs s = {s} > {_MAX_DEPTH} steps to reach tol = {tol}")
    return FixedPointResult(iterate_exact(system, UniformDF(), s), s, float(c**s))


# ---------------------------------------------------------------------------
# serialization


def system_to_json(system: IfsSystem) -> dict:
    return {
        "maps": [
            {"a": m.a, "b": m.b, "slope": m.slope, "intercept": m.intercept}
            for m in system.maps
        ],
        "p": [float(v) for v in system.p],
        "delta": [float(v) for v in system.delta],
        "identity_partition": system.identity_partition,
    }


def system_from_json(data: dict) -> IfsSystem:
    """The system a :func:`system_to_json` record describes.

    An ``identity_partition`` field, when present, must agree with the value
    derived from the maps and offsets.
    """
    try:
        maps = [AffineMap(*(float(m[key]) for key in ("a", "b", "slope", "intercept")))
                for m in data["maps"]]
        system = IfsSystem(maps, data["p"], data["delta"])
        flag = data.get("identity_partition")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed IFS system JSON: {exc}") from None
    if flag is not None and bool(flag) != system.identity_partition:
        raise ValueError(
            f"identity_partition is {bool(flag)} but the maps and offsets "
            f"{'form' if system.identity_partition else 'do not form'} an identity partition"
        )
    return system


def write_system_json(system: IfsSystem, path) -> None:
    text = json.dumps(system_to_json(system), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_system_json(path) -> IfsSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_json(json.load(fh))
