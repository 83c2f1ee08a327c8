"""Hypothesis properties of the operator T and the collage distance D.

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest

from ifsdist import (
    AffineMap,
    CollageProblem,
    GridDF,
    IfsSystem,
    apply,
    collage_distance,
    contractivity,
    edf_from_sample,
    edf_ifs,
    fixed_point,
    solve_inverse,
    sup_distance,
)

from ifsdist.ifs import _image_breakpoints
from ifsdist.inverse import _chain_cells, _chain_pass

from conftest import convexity_witness, map_table, reference_image_breakpoints

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True)


def _floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@st.composite
def systems(draw):
    """A valid system on 2-6 cells: identity maps with offsets that may be
    negative, or maps from [0,1) onto the cells with offsets >= 0."""
    k = draw(st.integers(2, 6))
    widths = draw(_floats(0.05, 1.0, k))
    cuts = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    cuts[-1] = 1.0
    raw = draw(_floats(0.05, 1.0, k))
    if draw(st.booleans()):
        maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(k)]
        p_hat = raw / raw.sum()
        delta = -draw(_floats(0.0, 0.9, k - 1)) * np.minimum(p_hat[:-1], p_hat[1:])
        p = p_hat * (1.0 - delta.sum())
    else:
        maps = [AffineMap.from_intervals((0.0, 1.0), (cuts[i], cuts[i + 1])) for i in range(k)]
        raw_d = draw(_floats(0.0, 0.5, k - 1))
        p, delta = raw / (raw.sum() + raw_d.sum()), raw_d / (raw.sum() + raw_d.sum())
    system = IfsSystem(maps, p, delta)
    assert system.violations() == []
    return system


@st.composite
def grid_dfs(draw, mode=None):
    """A step or piecewise-linear distribution function with 1-6 inner knots."""
    knots = draw(st.lists(st.floats(0.02, 0.98), min_size=1, max_size=6, unique=True))
    values = draw(_floats(0.0, 1.0, len(knots)))
    mode = mode or draw(st.sampled_from(["step", "linear"]))
    return GridDF(np.concatenate([[0.0], np.sort(knots), [1.0]]),
                  np.concatenate([[0.0], np.sort(values), [1.0]]), mode=mode)


@SETTINGS
@hypothesis.given(system=systems(), f=grid_dfs())
def test_image_is_a_distribution_function(system, f):
    tf = apply(system, f)
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101), tf.breakpoints()]))
    vals = tf.eval_array(xs)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))
    assert np.all(tf.eval_left_array(xs[1:]) <= vals[1:] + 1e-12)


@SETTINGS
@hypothesis.given(system=systems(), f=grid_dfs("step"), g=grid_dfs("step"))
def test_contraction_on_step_carriers(system, f, g):
    # every breakpoint of a step carrier and of its image is known, so
    # sup_distance is exact on both sides
    lhs = sup_distance(apply(system, f), apply(system, g))
    assert lhs <= contractivity(system) * sup_distance(f, g) + 1e-12


@SETTINGS
@hypothesis.given(sample=st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=2, max_size=30,
                                  unique=True))
def test_edf_is_the_fixed_point(sample):
    # T E = E with c = 1/n < 1, so E is the unique fixed point
    edf = edf_from_sample(sample)
    assert sup_distance(apply(edf_ifs(sample), edf), edf) <= 1e-12


@SETTINGS
@hypothesis.given(system=systems(), k=st.integers(1, 60),
                  scale=st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
def test_fixed_point_depth_is_least_within_tol(system, k, scale):
    # tol = c^k exactly (scale 1) is where the logarithm's rounding shows
    c = contractivity(system)
    tol = scale * c**k
    result = fixed_point(system, tol=tol)
    assert result.error_bound == c**result.iterations <= tol
    assert result.iterations == 1 or c ** (result.iterations - 1) > tol


@st.composite
def map_tables(draw):
    """10-60 maps onto random cells, each from [0,1) or from a random source
    inside it; each target but the last may overhang the next one's start by
    less than validation's 1e-12."""
    k = draw(st.integers(10, 60))
    widths = draw(_floats(0.01, 1.0, k))
    cuts = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    cuts[-1] = 1.0
    a = np.where(draw(st.lists(st.booleans(), min_size=k, max_size=k)), 0.0, draw(_floats(0.0, 0.3, k)))
    b = np.where(draw(st.lists(st.booleans(), min_size=k, max_size=k)), 1.0, draw(_floats(0.7, 1.0, k)))
    a[0], b[-1] = 0.0, 1.0
    overlap = draw(st.one_of(st.just(np.zeros(k - 1)), _floats(0.0, 9e-13, k - 1)))
    table = map_table(cuts, a, b, overlap)
    assert table.violations(np.zeros(k - 1)) == []
    return table


@SETTINGS
@hypothesis.given(table=map_tables(), depth=st.integers(2, 3),
                  jumps=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                 min_size=20, max_size=300, unique=True))
def test_capped_breakpoint_walk_matches_the_reference(table, depth, jumps):
    # past 2 * 4096 images a step evaluates only the ranks it keeps, unless
    # the targets overhang; both must keep the reference's points
    grid = np.concatenate([[0.0], np.sort(jumps), [1.0]])
    u0 = GridDF(grid, np.linspace(0.0, 1.0, grid.size), mode="step")
    assert np.array_equal(_image_breakpoints(table, u0, depth),
                          reference_image_breakpoints(table, u0, depth))


@st.composite
def problems(draw):
    system = draw(systems())
    return CollageProblem(draw(grid_dfs()), system.maps, system.delta, grid_size=64)


@SETTINGS
@hypothesis.given(problem=problems(), data=st.data())
def test_collage_distance_is_convex(problem, data):
    p1, p2 = (data.draw(_floats(-1.0, 2.0, problem.k)) for _ in range(2))
    lam = data.draw(st.floats(0.0, 1.0))
    lhs, rhs = convexity_witness(problem, p1, p2, lam)
    assert lhs <= rhs + 1e-12


@SETTINGS
@hypothesis.given(problem=problems(), data=st.data())
def test_solution_beats_feasible_weights(problem, data):
    raw = data.draw(_floats(0.0, 1.0, problem.k))
    hypothesis.assume(raw.sum() > 0.0)
    p = raw / raw.sum() * problem.weight_sum
    d_star = collage_distance(problem, solve_inverse(problem).p_star)
    assert d_star <= collage_distance(problem, p) + 1e-12


@SETTINGS
@hypothesis.given(problem=problems(), data=st.data())
def test_pass_verdict_is_monotone_in_t(problem, data):
    # the solver decides a bisection midpoint from passes at other t, so a
    # pass that succeeds at t1 must succeed at every t2 > t1, to the ulp
    cells, _ = _chain_cells(problem._cell, problem._w, problem._c, problem.k)

    def feasible(t):
        return _chain_pass(cells, problem.weight_sum, t)[0] >= 0.0

    def ulps(t, n):
        return t if n == 0 else ulps(float(np.nextafter(t, np.sign(n) * np.inf)), n - np.sign(n))

    lo, hi = 0.0, 2.0
    assert feasible(hi)
    for _ in range(100):  # down to the last t that fails, if any does
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
    t1 = ulps(lo, data.draw(st.integers(-4, 4)))
    t2 = ulps(t1, data.draw(st.integers(1, 8)))
    t3 = t2 + data.draw(st.floats(0.0, 0.1))
    verdicts = [feasible(t) for t in (t1, t2, t3)]
    assert verdicts == sorted(verdicts)
