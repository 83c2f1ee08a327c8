"""Distribution functions on [0,1] and sup-norm distances between them.

Every distribution function handled here is a non-decreasing,
right-continuous map F: [0,1] -> [0,1] with F(0) = 0 and F(1) = 1.
Concrete carriers:

- :class:`UniformDF` / :class:`FuncDF` -- analytic (callable) functions,
- :class:`EmpiricalDF` -- right-continuous step function of a sample,
- :class:`GridDF` -- values on a breakpoint grid, step or linear mode.

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
    "eval_left_limit",
    "read_sample_file",
    "write_function_csv",
    "read_function_csv",
]


class DistributionFunction:
    """Base contract: ``eval`` maps [0,1] into [0,1], monotone, F(0)=0, F(1)=1."""

    def eval(self, x: float) -> float:
        raise NotImplementedError

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.eval(float(x)) for x in np.asarray(xs, float)])

    def eval_left_limit(self, x: float) -> float:
        """Limit of F from the left; equals eval(x) for continuous carriers.

        By convention the left limit at 0 is 0.
        """
        if x <= 0.0:
            return 0.0
        return self.eval(x)

    def eval_left_array(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.eval_left_limit(float(x)) for x in np.asarray(xs, float)])

    def breakpoints(self) -> np.ndarray:
        """Known jump/kink locations in (0,1); empty for smooth carriers."""
        return np.empty(0)

    def __call__(self, x: float) -> float:
        return self.eval(x)


class UniformDF(DistributionFunction):
    """The uniform distribution function F(x) = x."""

    def eval(self, x: float) -> float:
        return float(x)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(xs, float).astype(float, copy=True)

    def __repr__(self) -> str:
        return "UniformDF()"


class FuncDF(DistributionFunction):
    """Analytic distribution function wrapping a callable.

    The callable must be continuous, non-decreasing on [0,1] and satisfy
    fn(0) = 0, fn(1) = 1; this is not verified pointwise.  Set
    ``vectorized=True`` when ``fn`` accepts numpy arrays.
    """

    def __init__(self, fn, vectorized: bool = False, name: str = "FuncDF"):
        self._fn = fn
        self._vectorized = vectorized
        self._name = name

    def eval(self, x: float) -> float:
        return float(self._fn(x))

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, float)
        if self._vectorized:
            return np.asarray(self._fn(xs), float)
        return np.array([float(self._fn(x)) for x in xs])

    def __repr__(self) -> str:
        return f"{self._name}"


class EmpiricalDF(DistributionFunction):
    """Empirical distribution function of a sample in (0,1).

    eval(x) = (number of sample points <= x) / n, right-continuous.
    Use :func:`edf_from_sample` to construct with validation.
    """

    def __init__(self, sample: np.ndarray):
        sample = np.asarray(sample, float)
        self.sample = np.sort(sample)
        self.sample.flags.writeable = False
        self.n = len(sample)

    def eval(self, x: float) -> float:
        return float(np.searchsorted(self.sample, x, side="right")) / self.n

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.sample, np.asarray(xs, float), side="right") / self.n

    def eval_left_limit(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return float(np.searchsorted(self.sample, x, side="left")) / self.n

    def eval_left_array(self, xs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.sample, np.asarray(xs, float), side="left") / self.n

    def breakpoints(self) -> np.ndarray:
        return self.sample

    def __repr__(self) -> str:
        return f"EmpiricalDF(n={self.n})"


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

    def eval(self, x: float) -> float:
        return float(self.eval_array(np.array([x]))[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, float)
        if self.mode == "linear":
            return np.interp(xs, self.grid, self.values)
        idx = np.searchsorted(self.grid, xs, side="right") - 1
        idx = np.clip(idx, 0, len(self.grid) - 1)
        return self.values[idx]

    def eval_left_limit(self, x: float) -> float:
        return float(self.eval_left_array(np.array([x]))[0])

    def eval_left_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, float)
        if self.mode == "linear":
            return np.interp(xs, self.grid, self.values)
        idx = np.searchsorted(self.grid, xs, side="left") - 1
        out = self.values[np.clip(idx, 0, len(self.grid) - 1)]
        return np.where(xs <= 0.0, 0.0, out)

    def breakpoints(self) -> np.ndarray:
        return self.grid[1:-1]

    def __repr__(self) -> str:
        return f"GridDF(points={len(self.grid)}, mode={self.mode!r})"


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


def edf_from_sample(sample) -> EmpiricalDF:
    """Build the empirical distribution function of a sample.

    The sample must be non-empty, finite, strictly inside (0,1), and free of
    duplicates; violations raise ValueError.
    """
    arr = np.sort(np.asarray(list(sample), float))
    if arr.size == 0:
        raise ValueError("sample is empty")
    problem = _nonfinite_violation("sample values", arr)
    if problem:
        raise ValueError(problem)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("sample values must lie strictly inside (0,1)")
    if np.any(np.diff(arr) == 0.0):
        raise ValueError("sample contains duplicate values")
    return EmpiricalDF(arr)


def _merged_points(grid_size: int, *point_sets) -> np.ndarray:
    pts = [np.linspace(0.0, 1.0, grid_size)]
    for ps in point_sets:
        ps = np.asarray(ps, float)
        if ps.size:
            pts.append(ps)
    return np.unique(np.concatenate(pts))


def sup_distance(f: DistributionFunction, g: DistributionFunction, grid_size: int = 20) -> float:
    """Max of |F - G| over an equally spaced grid plus all known breakpoints.

    Left limits are evaluated at every interior point of the evaluation
    set, so the result is exact for step/grid carriers whose breakpoints
    are all known, and a lower bound on the true sup otherwise.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    xs = _merged_points(grid_size, f.breakpoints(), g.breakpoints())
    d = float(np.max(np.abs(f.eval_array(xs) - g.eval_array(xs))))
    interior = xs[xs > 0.0]
    if interior.size:
        dl = float(np.max(np.abs(f.eval_left_array(interior) - g.eval_left_array(interior))))
        d = max(d, dl)
    return d


def eval_left_limit(f: DistributionFunction, x: float) -> float:
    """Left limit of a distribution function at x (0 by convention at x=0)."""
    return f.eval_left_limit(x)


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

    When ``mesh`` is omitted a 513-point uniform grid united with the
    function's breakpoints is used.
    """
    if mesh is None:
        mesh = _merged_points(513, f.breakpoints())
    else:
        mesh = np.unique(np.asarray(mesh, float))
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
