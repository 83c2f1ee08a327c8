"""Distribution functions on [0,1] and sup-norm distances between them.

Every distribution function handled here is a non-decreasing,
right-continuous map F: [0,1] -> [0,1] with F(0) = 0 and F(1) = 1.  A
carrier defines ``eval_array`` (values at an array of points), and
``eval_left_array`` (left limits) too if it jumps; ``eval`` and
``eval_left_limit`` are one-point wrappers of the two.  Concrete carriers:

- :class:`UniformDF` / :class:`FuncDF` -- analytic functions; FuncDF takes a
  function on arrays (wrap a scalar one in ``np.vectorize``),
- :class:`GridDF` -- values on a breakpoint grid, step or linear mode,
- :class:`EmpiricalDF` -- the step GridDF of a sample.

``sup_distance`` evaluates on a finite point set (an equally spaced grid
united with all known breakpoints and their left limits), so it is a lower
bound on the true sup distance and exact whenever both arguments are
piecewise monotone with all breakpoints included in the set.

All carriers are immutable after construction and evaluation is pure, so
instances are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DistributionFunction",
    "FuncDF",
    "UniformDF",
    "EmpiricalDF",
    "GridDF",
    "edf_from_sample",
    "sup_distance",
    "read_sample_file",
    "write_function_csv",
    "read_function_csv",
]


class DistributionFunction:
    """Base contract: F maps [0,1] into [0,1], monotone, F(0)=0, F(1)=1."""

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_left_array(self, xs: np.ndarray) -> np.ndarray:
        """Left limits: the values of a continuous carrier, and 0 at x <= 0."""
        xs = np.asarray(xs, float)
        return np.where(xs <= 0.0, 0.0, self.eval_array(xs))

    def eval(self, x: float) -> float:
        return float(self.eval_array(np.array([float(x)]))[0])

    def eval_left_limit(self, x: float) -> float:
        return float(self.eval_left_array(np.array([float(x)]))[0])

    def breakpoints(self) -> np.ndarray:
        """Known jump/kink locations in (0,1); empty for smooth carriers."""
        return np.empty(0)

    def __call__(self, x: float) -> float:
        return self.eval(x)


class UniformDF(DistributionFunction):
    """The uniform distribution function F(x) = x."""

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return np.array(xs, float)

    def __repr__(self) -> str:
        return "UniformDF()"


class FuncDF(DistributionFunction):
    """Analytic distribution function wrapping a function on arrays.

    ``fn`` maps an array of points to their values.  It must be continuous,
    non-decreasing on [0,1] and satisfy fn(0) = 0, fn(1) = 1; this is not
    verified pointwise.  A scalar function can be wrapped in ``np.vectorize``.
    """

    def __init__(self, fn, name: str = "FuncDF"):
        self._fn = fn
        self._name = name

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(xs, float)), float)

    def __repr__(self) -> str:
        return f"{self._name}"


class GridDF(DistributionFunction):
    """Distribution function carried on a breakpoint grid.

    mode="step": right-continuous step function, F(x) = values[j] for
    x in [breakpoints[j], breakpoints[j+1]).  mode="linear": piecewise
    linear interpolation through (breakpoints, values).
    """

    def __init__(self, breakpoints: np.ndarray, values: np.ndarray, mode: str = "linear"):
        bps = np.asarray(breakpoints, float)
        vals = np.asarray(values, float)
        if mode not in ("step", "linear"):
            raise ValueError(f"unknown GridDF mode {mode!r}")
        if bps.ndim != 1 or bps.shape != vals.shape or len(bps) < 2:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length >= 2")
        problem = _nonfinite_violation("breakpoints", bps) or _nonfinite_violation("values", vals)
        if problem:
            raise ValueError(problem)
        if not (np.all(np.diff(bps) > 0.0)):
            raise ValueError("breakpoints must be strictly increasing")
        if abs(bps[0]) > 1e-12 or abs(bps[-1] - 1.0) > 1e-12:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("values must be non-decreasing")
        if abs(vals[0]) > 1e-12 or abs(vals[-1] - 1.0) > 1e-12:
            raise ValueError("values must start at 0 and end at 1")
        # snap float dust so the invariants hold exactly
        bps = bps.copy()
        bps[0], bps[-1] = 0.0, 1.0
        vals = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
        vals[0], vals[-1] = 0.0, 1.0
        bps.flags.writeable = False
        vals.flags.writeable = False
        self.grid = bps
        self.values = vals
        self.mode = mode

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return self._lookup(xs, "right")

    def eval_left_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, float)
        return np.where(xs <= 0.0, 0.0, self._lookup(xs, "left"))

    def _lookup(self, xs, side: str) -> np.ndarray:
        """Values at xs (side="right") or left limits above 0 (side="left")."""
        xs = np.asarray(xs, float)
        if self.mode == "linear":
            return np.interp(xs, self.grid, self.values)
        idx = np.searchsorted(self.grid, xs, side=side) - 1
        return self.values[np.maximum(idx, 0)]

    def breakpoints(self) -> np.ndarray:
        return self.grid[1:-1]

    def __repr__(self) -> str:
        return f"GridDF(points={len(self.grid)}, mode={self.mode!r})"


class EmpiricalDF(GridDF):
    """Empirical distribution function of a sample strictly inside (0,1).

    The step GridDF on [0, the distinct sample points, 1] whose values are
    the cumulative counts over n: F(x) = (number of sample points <= x) / n,
    so a point that occurs r times is a jump of r/n.  The sample must be
    non-empty, finite and strictly inside (0,1); unlike
    :func:`edf_from_sample`, it may hold ties.
    """

    def __init__(self, sample: np.ndarray):
        self.sample = _checked_sample(sample)
        self.sample.flags.writeable = False
        self.n = len(self.sample)
        # index of the last occurrence of each distinct point; the grid and
        # values are valid by construction, so GridDF's checks are skipped
        last = np.flatnonzero(np.append(np.diff(self.sample) > 0.0, True))
        self.grid = np.concatenate([[0.0], self.sample[last], [1.0]])
        self.values = np.concatenate([[0.0], (last + 1) / self.n, [1.0]])
        self.grid.flags.writeable = self.values.flags.writeable = False
        self.mode = "step"

    def __repr__(self) -> str:
        return f"EmpiricalDF(n={self.n})"


def _nonfinite_violation(name: str, values) -> str | None:
    """Message naming a NaN or infinite entry of ``values``, or None.

    Comparisons with NaN are all False, so range checks alone let it through;
    every validator of user numbers runs this gate first.
    """
    arr = np.asarray(values, float)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        return f"{name} must be finite, found {bad[0]}"
    return None


def _checked_sample(sample) -> np.ndarray:
    """The sample sorted, after checking that it is non-empty, finite and
    strictly inside (0,1); violations raise ValueError."""
    arr = np.sort(np.asarray(sample if isinstance(sample, np.ndarray) else list(sample), float))
    if arr.size == 0:
        raise ValueError("sample is empty")
    problem = _nonfinite_violation("sample values", arr)
    if problem:
        raise ValueError(problem)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("sample values must lie strictly inside (0,1)")
    return arr


def edf_from_sample(sample) -> EmpiricalDF:
    """Build the empirical distribution function of a sample.

    The sample must be non-empty, finite, strictly inside (0,1), and free of
    duplicates; violations raise ValueError.
    """
    edf = EmpiricalDF(sample)
    if np.any(np.diff(edf.sample) == 0.0):
        raise ValueError("sample contains duplicate values")
    return edf


def _merged_points(grid_size: int, *point_sets) -> np.ndarray:
    """The sorted distinct points of ``np.linspace(0, 1, grid_size)`` and of every
    set, kept within [0,1]: the one builder of evaluation sets, for sup
    distances, CSV dumps, default meshes and collage rows."""
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid_size), *map(np.ravel, point_sets)]))
    return xs[(xs >= 0.0) & (xs <= 1.0)]


def sup_distance(f: DistributionFunction, g: DistributionFunction, grid_size: int = 20) -> float:
    """Max of |F - G| over an equally spaced grid plus all known breakpoints.

    Left limits are evaluated at every interior point of the evaluation
    set, so the result is exact for step/grid carriers whose breakpoints
    are all known, and a lower bound on the true sup otherwise.  An
    iterate (``IteratedDF``) keeps an evenly spaced subset once its
    breakpoints pass 4096, and the result is then a lower bound too.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    xs = _merged_points(grid_size, f.breakpoints(), g.breakpoints())
    d = float(np.max(np.abs(f.eval_array(xs) - g.eval_array(xs))))
    interior = xs[xs > 0.0]  # never empty: the grid holds 1
    return max(d, float(np.max(np.abs(f.eval_left_array(interior) - g.eval_left_array(interior)))))


def read_sample_file(path) -> np.ndarray:
    """Read a sample file: one real per line, blank lines ignored."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{line_no}: not a number: {text!r}") from None
    if not values:
        raise ValueError(f"{path}: no sample values found")
    return np.asarray(values, float)


def write_function_csv(f: DistributionFunction, path, mesh=None) -> None:
    """Dump a distribution function as CSV with header ``x,value``.

    The rows are at the sorted distinct points of ``mesh`` and at 0 and 1, so
    that :func:`read_function_csv` reads the file back; a mesh point that is
    not finite or lies outside [0,1] raises ValueError.  When ``mesh`` is
    omitted a 513-point uniform grid united with the function's breakpoints
    is used.
    """
    if mesh is None:
        mesh = _merged_points(513, f.breakpoints())
    else:
        mesh = np.asarray(mesh, float)
        outside = mesh[(mesh < 0.0) | (mesh > 1.0)]
        problem = _nonfinite_violation("mesh points", mesh)
        if problem or outside.size:
            raise ValueError(problem or f"mesh points must lie in [0,1], found {outside[0]}")
        mesh = _merged_points(2, mesh)
    vals = f.eval_array(mesh)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,value\n")
        for x, v in zip(mesh, vals):
            fh.write(f"{x:.17g},{v:.17g}\n")


def read_function_csv(path, mode: str = "linear") -> GridDF:
    """Read an ``x,value`` CSV dump back into a GridDF."""
    xs, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "x,value":
            raise ValueError(f"{path}: expected header 'x,value', got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: malformed row {text!r}")
            xs.append(float(parts[0]))
            vs.append(float(parts[1]))
    return GridDF(np.asarray(xs), np.asarray(vs), mode=mode)
