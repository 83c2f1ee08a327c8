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

from .distfn import DistributionFunction, GridDF, UniformDF, _nonfinite_violation

__all__ = [
    "AffineMap",
    "IfsSystem",
    "IteratedDF",
    "FixedPointResult",
    "validate",
    "apply",
    "iterate_exact",
    "iterate",
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

    def forward(self, x: float) -> float:
        return self.slope * x + self.intercept

    def inverse(self, y: float) -> float:
        return (y - self.intercept) / self.slope

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
        """w_i(x) for every x and every map i whose source [a_i, b_i) holds x."""
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
            mid = 0.5 * (a + b)
            per_map = [
                (~(slope > 0.0), "slope {slope} is not positive"),
                (~(b > a), "empty source interval [{a},{b})"),
                ((a < -_TOL) | (b > 1.0 + _TOL), "source [{a},{b}) leaves [0,1]"),
                ((starts < -_TOL) | (ends > 1.0 + _TOL), "target [{c},{d}) leaves [0,1]"),
                (np.abs((slope * mid + self.intercept - self.intercept) / slope - mid) > _TOL,
                 "inverse(forward(x)) != x"),
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
    if not c < 1.0:
        raise ValueError(f"contractivity constant must be < 1, got {c}")
    return float(np.sum(np.abs(p - p_star)) / (1.0 - c))


# ---------------------------------------------------------------------------
# exact evaluation of operator iterates via affine pullback chains


def _pullback(table: _MapTable, ys: np.ndarray, left: bool = False):
    """Cell index and preimage of every point: returns (idx, w_idx^{-1}(y)).

    Each point belongs to the map whose target interval [c_i, d_i) holds it.
    For left limits (``left=True``) a point sitting exactly on a target start
    belongs to the interval to its left and pulls back to that map's source
    end.  The map arithmetic can land a few ulps on either side of the true
    preimage; when that preimage is a breakpoint of the function being
    pulled back, the side decides the value.  So right values resolve
    at-or-above the true preimage (right continuity) and left limits below
    it.  Identity maps pull back exactly and are left alone.
    """
    starts = table.starts
    idx = np.searchsorted(starts, ys, side="right") - 1
    np.clip(idx, 0, len(starts) - 1, out=idx)
    if left:
        on_boundary = (idx > 0) & (starts[idx] == ys)
        idx -= on_boundary
    pulled = (ys - table.intercept[idx]) / table.slope[idx]
    inexact = ~table.exact[idx]
    if np.any(inexact):
        step = 4.0 * np.spacing(np.maximum(np.abs(pulled), 1e-300))
        pulled = np.where(inexact, pulled - step if left else pulled + step, pulled)
    pulled = np.clip(pulled, table.a[idx], table.b[idx])
    if left:
        pulled = np.where(on_boundary, table.b[idx], pulled)
    return idx, pulled


def _walk(system: IfsSystem, xs: np.ndarray, depth: int, left: bool = False,
          snapshot_at: int = -1):
    """Pullback chain: returns (A, B, y, snapshot) with T^depth u (x) = A * u(y) + B,
    or the left limit of T^depth u at x when ``left``, with u's left limit at y.
    ``snapshot_at`` captures the state after that many steps, giving
    T^snapshot_at on the same points for free."""
    y = np.asarray(xs, float).astype(float, copy=True)
    amp = np.ones_like(y)
    off = np.zeros_like(y)
    snap = (amp.copy(), off.copy(), y.copy()) if snapshot_at == 0 else None
    for step in range(1, depth + 1):
        idx, y = _pullback(system._table, y, left)
        off += amp * system._offsets[idx]
        amp = amp * system.p[idx]
        if step == snapshot_at:
            snap = (amp.copy(), off.copy(), y.copy())
    return amp, off, y, snap


class IteratedDF(DistributionFunction):
    """Lazy, exactly evaluatable iterate T^s u0 of a valid system."""

    def __init__(self, system: IfsSystem, u0: DistributionFunction, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        system.require_valid()
        self.system = system
        self.u0 = u0
        self.depth = int(depth)
        self._bps: np.ndarray | None = None

    def eval(self, x: float) -> float:
        return float(self.eval_array(np.array([float(x)]))[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        amp, off, y, _ = _walk(self.system, xs, self.depth)
        vals = amp * self.u0.eval_array(y) + off
        # endpoint identities hold exactly up to float summation dust
        xs = np.asarray(xs, float)
        vals[xs >= 1.0] = 1.0
        return vals

    def eval_left_limit(self, x: float) -> float:
        return float(self.eval_left_array(np.array([float(x)]))[0])

    def eval_left_array(self, xs: np.ndarray) -> np.ndarray:
        amp, off, y, _ = _walk(self.system, xs, self.depth, left=True)
        return amp * self.u0.eval_left_array(y) + off

    def breakpoints(self) -> np.ndarray:
        """The start's breakpoints and the cell boundaries, carried through
        ``depth`` map steps.

        Past _CAP (4096) points after a step, an evenly spaced subset plus
        the cell boundaries is kept, so the set is then incomplete and a sup
        taken over it (``sup_distance``, ``simulate --exact-sup``) is a lower
        bound.
        """
        if self._bps is None:
            self._bps = _image_breakpoints(self.system._table, self.u0, self.depth)
        return self._bps

    def __repr__(self) -> str:
        return f"IteratedDF(depth={self.depth}, k={self.system.k})"


def _image_breakpoints(table: _MapTable, u0: DistributionFunction, depth: int) -> np.ndarray:
    boundary = np.unique(np.concatenate([table.starts, table.ends]))
    bps = np.asarray(u0.breakpoints(), float)
    for _ in range(depth):
        bps = np.unique(np.concatenate([boundary, table.images(bps)]))
        if bps.size > _CAP:
            keep = np.linspace(0, bps.size - 1, _CAP).astype(int)
            bps = np.unique(np.concatenate([bps[keep], boundary]))
    return bps[(bps > 0.0) & (bps < 1.0)]


def apply(system: IfsSystem, f: DistributionFunction) -> IteratedDF:
    """T f for a valid system; the result is again a distribution function."""
    return IteratedDF(system, f, depth=1)


def iterate_exact(system: IfsSystem, u0: DistributionFunction, s: int) -> IteratedDF:
    """Lazy T^s u0, evaluatable exactly at any point."""
    return IteratedDF(system, u0, depth=s)


def default_mesh(system: IfsSystem, u0: DistributionFunction | None = None) -> np.ndarray:
    """Evaluation mesh containing all target-interval endpoints.

    Identity-partition systems keep their breakpoints at the same boundaries
    under iteration, so a modest uniform refinement suffices; contractive
    maps spread breakpoints densely and get a grid of _CAP + 1 points.
    """
    pieces = [system._table.starts, system._table.ends]
    if u0 is not None:
        pieces.append(np.asarray(u0.breakpoints(), float))
    pieces.append(np.linspace(0.0, 1.0, 129 if system.identity_partition else _CAP + 1))
    mesh = np.unique(np.concatenate(pieces))
    return mesh[(mesh >= 0.0) & (mesh <= 1.0)]


def _sample_grid(system: IfsSystem, vals_right: np.ndarray, mesh: np.ndarray) -> GridDF:
    mode = "step" if system.identity_partition else "linear"
    vals = np.clip(vals_right, 0.0, 1.0)
    vals = np.maximum.accumulate(vals)
    vals[0], vals[-1] = 0.0, 1.0
    return GridDF(mesh, vals, mode=mode)


def iterate(system: IfsSystem, u0: DistributionFunction, s: int) -> GridDF:
    """T^s u0 sampled on its default mesh."""
    if s < 1:
        raise ValueError("iteration count must be >= 1")
    system.require_valid()
    base = default_mesh(system, u0)
    it = IteratedDF(system, u0, depth=s)
    return _sample_grid(system, it.eval_array(base), base)


class FixedPointResult(NamedTuple):
    df: GridDF
    iterations: int
    error_bound: float


def fixed_point(system: IfsSystem, tol: float = 1e-9) -> FixedPointResult:
    """Approximate the unique fixed point by iterating from the uniform start.

    Iterates until the mesh sup distance between consecutive iterates drops
    below tol*(1-c)/c; the bound c/(1-c)*d(T u, u) on the mesh distance to
    the true fixed point is then at most tol.  Requires c < 1.  The bound is
    certified on the mesh points (right values and left limits) only: both
    distances are maxima over the mesh, not the sup over [0,1].
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    system.require_valid()
    c = contractivity(system)
    if c >= 1.0:
        raise ValueError(f"system is not contractive: max weight = {c}")
    mesh = default_mesh(system)
    u0 = UniformDF()
    threshold = np.inf if c == 0.0 else tol * (1.0 - c) / c

    interior = mesh > 0.0

    def gap_at(s: int):
        """d_sup(T^{s+1} u0, T^s u0) on the mesh, and the T^{s+1} samples."""
        amp, off, y, snap = _walk(system, mesh, s + 1, snapshot_at=s)
        hi = amp * u0.eval_array(y) + off
        amp_s, off_s, y_s = snap
        lo = amp_s * u0.eval_array(y_s) + off_s
        gap = float(np.max(np.abs(hi - lo)))
        xm = mesh[interior]
        lamp, loff, ly, lsnap = _walk(system, xm, s + 1, left=True, snapshot_at=s)
        lhi = lamp * u0.eval_left_array(ly) + loff
        lamp_s, loff_s, ly_s = lsnap
        llo = lamp_s * u0.eval_left_array(ly_s) + loff_s
        gap = max(gap, float(np.max(np.abs(lhi - llo))))
        return gap, hi

    d1, vals = gap_at(0)
    s = 0
    if d1 > threshold:
        # d(T^{s+1}u, T^s u) <= c^s d(Tu, u): jump to the predicted depth
        s = max(1, ceil(log(threshold / d1) / log(c)))
        for _ in range(64):
            gap, vals = gap_at(s)
            if gap <= threshold:
                d1 = gap
                break
            s += max(1, s // 4)
        else:
            raise RuntimeError("fixed-point iteration failed to converge")
    bound = 0.0 if c == 0.0 else c / (1.0 - c) * d1
    return FixedPointResult(_sample_grid(system, vals, mesh), s + 1, float(bound))


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
