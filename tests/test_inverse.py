import time
import tracemalloc

import numpy as np
import pytest

from ifsdist import (
    AffineMap,
    BetaDF,
    BetaParams,
    CollageProblem,
    DistributionFunction,
    FuncDF,
    GridDF,
    IfsSystem,
    UniformDF,
    apply,
    collage_bound,
    collage_distance,
    edf_from_sample,
    edf_ifs,
    fixed_point,
    quantile_ifs,
    solve_inverse,
    sup_distance,
)
from ifsdist import inverse
from ifsdist.inverse import _CHAIN_TOL, _chain_cells, _chain_pass, _chain_weights

from conftest import (constraint_rows, convexity_witness, random_contractive_system,
                      random_cuts, random_identity_system, random_linear_df, random_step_df)


def single_point_problem(x1):
    """Identity maps split at x1, uniform target, zero offset."""
    maps = [AffineMap.identity(0.0, x1), AffineMap.identity(x1, 1.0)]
    return CollageProblem(UniformDF(), maps, [0.0])


def identity_problem(target, cuts, delta=None):
    maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
    if delta is None:
        delta = np.zeros(len(maps) - 1)
    return CollageProblem(target, maps, delta)


def single_point_distance(x1, p1):
    """Closed-form objective for the one-point problem with p = (p1, 1-p1):
    max{0, x1(1-p1), p1(1-x1), 0}."""
    return max(0.0, x1 * (1.0 - p1), p1 * (1.0 - x1), 0.0)


class CountingDF(DistributionFunction):
    """A carrier that counts its calls of each side's evaluation."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = {"right": 0, "left": 0}

    def eval_array(self, xs):
        self.calls["right"] += 1
        return self._inner.eval_array(xs)

    def eval_left_array(self, xs):
        self.calls["left"] += 1
        return self._inner.eval_left_array(xs)

    def breakpoints(self):
        return self._inner.breakpoints()


class TestCollageDistance:
    def test_single_point_closed_form_on_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x1 = rng.uniform(0.05, 0.95)
            p1 = rng.uniform(0.0, 1.0)
            problem = single_point_problem(x1)
            d = collage_distance(problem, [p1, 1.0 - p1])
            assert d == pytest.approx(single_point_distance(x1, p1), abs=1e-14)

    def test_defined_off_the_simplex(self):
        problem = single_point_problem(0.4)
        # arbitrary p, including negative entries: the four rows are
        # |p1 F - F| at F in {0, x1} and |p1 + p2 F - F| at F in {x1, 1}
        p = np.array([-0.3, 1.7])
        rows = [
            abs(p[0] * 0.0 - 0.0),
            abs(p[0] * 0.4 - 0.4),
            abs(p[0] + p[1] * 0.4 - 0.4),
            abs(p[0] + p[1] * 1.0 - 1.0),
        ]
        assert collage_distance(problem, p) == pytest.approx(max(rows), abs=1e-14)

    def test_edf_with_own_partition_is_exact(self):
        sample = [0.2, 0.5, 0.8]
        edf = edf_from_sample(sample)
        # the exact construction's weights (0, 1/n, ..., 1/n) with its
        # offsets reproduce the e.d.f.: D = 0 there
        system = edf_ifs(sample)
        problem = CollageProblem(edf, system.maps, system.delta)
        assert collage_distance(problem, system.p) <= 1e-14
        # with zero offsets the constrained minimum is still zero
        sol = solve_inverse(identity_problem(edf, [0.0] + sample + [1.0]))
        assert sol.d_star <= 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(7)
        problem = single_point_problem(0.3)
        for _ in range(20):
            p = rng.normal(size=2)
            assert collage_distance(problem, p) >= 0.0

    def test_length_mismatch(self):
        problem = single_point_problem(0.3)
        with pytest.raises(ValueError, match="length"):
            collage_distance(problem, [0.5, 0.3, 0.2])

    @pytest.mark.parametrize("kind", ["beta", "step", "edf"])
    def test_agrees_with_operator_evaluation(self, kind):
        # independent route: build the system and evaluate T_p F - F directly
        # at every row's own point.  Step and e.d.f. targets have jumps whose
        # map images pull back within an ulp of the jump, on either side.
        rng = np.random.default_rng({"beta": 11, "step": 12, "edf": 13}[kind])
        for _ in range(1 if kind == "beta" else 40):
            if kind == "beta":
                cuts = random_cuts(rng, 4)
                maps = [AffineMap.from_intervals((0.0, 1.0), (cuts[i], cuts[i + 1]))
                        for i in range(4)]
                raw = rng.random(4) + 0.1
                system = IfsSystem(maps, raw / raw.sum(), np.zeros(3))
                target = BetaDF(BetaParams(2, 2))
            else:
                system = random_contractive_system(rng)
                assert np.all(system.delta > 0.0)
                if kind == "step":
                    target = random_step_df(rng)
                else:
                    target = edf_from_sample(rng.uniform(0.02, 0.98, int(rng.integers(3, 30))))
            assert not system.violations()
            problem = CollageProblem(target, system.maps, system.delta, grid_size=128)
            image = apply(system, target)
            xs = np.array([x for x, _ in problem.eval_spots])
            left = np.array([is_left for _, is_left in problem.eval_spots])
            want = np.where(left, image.eval_left_array(xs) - target.eval_left_array(xs),
                            image.eval_array(xs) - target.eval_array(xs))
            np.testing.assert_allclose(problem.residuals(system.p), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "grid"])
    def test_target_evaluated_once_per_side(self, mode):
        rng = np.random.default_rng(17)
        target = CountingDF(random_step_df(rng))
        assert target.breakpoints().size
        if mode == "exact":
            problem = identity_problem(target, random_cuts(rng, 6))
        else:
            maps = quantile_ifs(BetaDF(BetaParams(2, 3)), 6).maps
            problem = CollageProblem(target, maps, np.zeros(len(maps) - 1), grid_size=128)
        assert problem.mode == mode
        assert target.calls == {"right": 1, "left": 1}

    @pytest.mark.parametrize("case", range(8))
    def test_rows_are_ordered_by_cell_point_and_side(self, case):
        rng = np.random.default_rng((53, case))
        if case % 2:
            problem = random_grid_problem(case)
        else:
            system = random_identity_system(rng, k_range=(2, 12), negative_delta=case % 4 == 0)
            problem = CollageProblem(random_step_df(rng), system.maps, system.delta)
            # exact mode: the right value at a_i, then the left limit at b_i
            table = problem._table
            want = np.column_stack([table.a, table.b]).ravel().tolist()
            assert problem.eval_spots == tuple(zip(want, [False, True] * system.k))
        keys = [(cell, x, left) for cell, (x, left) in
                zip(problem._cell.tolist(), problem.eval_spots)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


class TestSolveInverse:
    def test_single_point_solution_sweep(self):
        for x1 in np.arange(0.1, 0.95, 0.1):
            sol = solve_inverse(single_point_problem(float(x1)))
            assert sol.p_star[0] == pytest.approx(x1, abs=1e-6)
            # 1-d grid-search oracle at 1e-6 resolution on the closed form
            grid = np.linspace(0.0, 1.0, 1_000_001)
            oracle = float(np.min(np.maximum(x1 * (1 - grid), grid * (1 - x1))))
            assert sol.d_star == pytest.approx(float(x1 * (1 - x1)), abs=1e-8)
            assert sol.d_star == pytest.approx(oracle, abs=1e-6)

    def test_feasibility_of_solution(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            cuts = random_cuts(rng, int(rng.integers(2, 7)))
            problem = identity_problem(BetaDF(BetaParams(2, 2)), cuts)
            sol = solve_inverse(problem)
            assert np.all(sol.p_star >= -1e-10)
            assert float(np.sum(sol.p_star)) == pytest.approx(problem.weight_sum, abs=1e-10)

    def test_optimality_against_random_simplex_points(self):
        rng = np.random.default_rng(17)
        problem = identity_problem(BetaDF(BetaParams(3, 5)), random_cuts(rng, 5))
        sol = solve_inverse(problem)
        draws = rng.dirichlet(np.ones(5), size=10_000) * problem.weight_sum
        a_mat, b_vec = constraint_rows(problem)
        values = np.max(np.abs(draws @ a_mat.T + b_vec), axis=1)
        assert sol.d_star <= float(values.min()) + 1e-9

    @pytest.mark.parametrize("negative_delta", [False, True])
    @pytest.mark.parametrize("kind", ["beta", "step", "edf"])
    def test_exact_rows_give_the_true_sup(self, kind, negative_delta):
        # on a cell T_p F - F is affine in F(x), so its sup over [0,1] is
        # attained at a cell's start or the left limit at its end: the
        # exact rows, evaluated by an independent route through apply
        rng = np.random.default_rng((19, negative_delta, len(kind)))
        for _ in range(50):
            system = random_identity_system(rng, k_range=(2, 12),
                                            negative_delta=negative_delta)
            if kind == "beta":
                target = BetaDF(BetaParams(*rng.uniform(0.5, 5.0, size=2)))
            elif kind == "step":
                target = random_step_df(rng)
            else:
                target = edf_from_sample(rng.uniform(0.02, 0.98, int(rng.integers(3, 30))))
            problem = CollageProblem(target, system.maps, system.delta)
            assert problem.mode == "exact" and len(problem.eval_spots) == 2 * system.k
            d = sup_distance(apply(system, target), target, grid_size=2049)
            assert collage_distance(problem, system.p) == pytest.approx(d, abs=1e-12)

    def test_minimax_certificate(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            cuts = random_cuts(rng, int(rng.integers(2, 7)))
            problem = identity_problem(BetaDF(BetaParams(5, 3)), cuts)
            sol = solve_inverse(problem)
            on_boundary = float(np.min(sol.p_star)) <= 1e-10
            assert len(sol.active_constraints) >= 2 or on_boundary

    def test_report_fields(self):
        sol = solve_inverse(single_point_problem(0.3))
        data = sol.to_json()
        assert set(data) == {"p_star", "D_star", "active_constraints", "iterations", "mode"}
        assert data["mode"] == "exact"
        assert data["iterations"] > 0

    def test_iterations_count_forward_passes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(inverse, "_chain_pass",
                            lambda *args: calls.append(args[2]) or _chain_pass(*args))
        exact = solve_inverse(single_point_problem(0.3))
        assert exact.iterations == len(calls)
        maps = [AffineMap.from_intervals((0.0, 1.0), (0.0, 0.3)),
                AffineMap.from_intervals((0.0, 1.0), (0.3, 1.0))]
        # a Beta target: the uniform is these maps' fixed point, with D* = 0
        grid = solve_inverse(CollageProblem(BetaDF(BetaParams(2, 2)), maps, [0.0],
                                            grid_size=16))
        assert grid.iterations == len(calls) - exact.iterations
        # aimed passes decide most of the about log2(D / 1e-13) bisection
        # midpoints without a pass of their own
        assert exact.mode == "exact" and exact.iterations <= 20
        assert grid.mode == "grid" and grid.iterations <= 20

    def test_subgradient_cross_check(self):
        rng = np.random.default_rng(29)
        for _ in range(3):
            cuts = random_cuts(rng, 4)
            problem = identity_problem(BetaDF(BetaParams(2, 2)), cuts)
            lp = solve_inverse(problem)
            _, d_sg = solve_inverse_subgradient(problem, iterations=20_000)
            assert lp.d_star <= d_sg + 1e-9
            assert abs(lp.d_star - d_sg) < 5e-3


def solve_inverse_subgradient(problem: CollageProblem, iterations: int = 100_000,
                              step_scale: float | None = None):
    """Projected subgradient descent on D over C; independent cross-check.

    Steps are step_scale/sqrt(t); the best iterate is returned.  Converges
    like O(log t / sqrt(t)), so this is a coarse check, not the solver.
    """
    k, s = problem.k, problem.weight_sum
    if step_scale is None:
        step_scale = s
    p = np.full(k, s / k)
    best_p, best_d = p.copy(), collage_distance(problem, p)
    a_mat, b_vec = constraint_rows(problem)
    for t in range(1, iterations + 1):
        r = a_mat @ p + b_vec
        m = int(np.argmax(np.abs(r)))
        g = a_mat[m] if r[m] >= 0.0 else -a_mat[m]
        p = _project_simplex(p - (step_scale / np.sqrt(t)) * g, s)
        d = float(np.max(np.abs(a_mat @ p + b_vec)))
        if d < best_d:
            best_d, best_p = d, p.copy()
    return best_p, best_d


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    rho = np.nonzero(u - css / np.arange(1, len(v) + 1) > 0.0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def highs_d_star(problem):
    """min_p max |T_p F - F| over C by HiGHS, rows rebuilt from the residuals."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    k = problem.k
    a, b = constraint_rows(problem)
    ones = np.ones((len(b), 1))
    res = linprog(
        c=np.r_[np.zeros(k), 1.0],
        A_ub=np.block([[a, -ones], [-a, -ones]]),
        b_ub=np.r_[-b, b],
        A_eq=np.r_[np.ones(k), 0.0][None, :],
        b_eq=[problem.weight_sum],
        bounds=[(0, None)] * k + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def assert_matches_highs(problem, sol):
    """D* agrees with HiGHS and p* is feasible; p* itself need not be unique."""
    assert sol.d_star == pytest.approx(highs_d_star(problem), abs=1e-9)
    assert sol.d_star == collage_distance(problem, sol.p_star)
    assert float(np.min(sol.p_star)) >= 0.0
    assert float(np.sum(sol.p_star)) == pytest.approx(problem.weight_sum, abs=1e-12)


class TestChainSolverAgainstHighs:
    @pytest.mark.parametrize("n", [30, 75, 150, 400])
    def test_random_sample_partitions(self, n):
        rng = np.random.default_rng(n)
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n)), [1.0]])
        targets = [BetaDF(BetaParams(2, 5)), BetaDF(BetaParams(0.5, 0.5)),
                   edf_from_sample(rng.uniform(0.0, 1.0, 120))]
        for target in targets:
            start = time.perf_counter()
            problem = identity_problem(target, cuts)
            sol = solve_inverse(problem)
            elapsed = time.perf_counter() - start
            assert_matches_highs(problem, sol)
            assert elapsed < 1.0

    def test_edf_target_on_its_own_sample_and_a_coarser_one(self):
        rng = np.random.default_rng(41)
        sample = np.sort(rng.uniform(0.0, 1.0, 60))
        edf = edf_from_sample(sample)
        for cuts in (np.concatenate([[0.0], sample, [1.0]]),
                     np.concatenate([[0.0], sample[::7], [1.0]])):
            problem = identity_problem(edf, cuts)
            assert_matches_highs(problem, solve_inverse(problem))

    @pytest.mark.parametrize("negative_delta", [False, True])
    def test_random_identity_system_offsets(self, negative_delta):
        rng = np.random.default_rng(43 + negative_delta)
        for trial in range(40):
            system = random_identity_system(rng, k_range=(2, 12),
                                            negative_delta=negative_delta)
            if trial % 2:
                target = BetaDF(BetaParams(*rng.uniform(0.5, 5.0, size=2)))
            else:  # a target with the system's own cuts as breakpoints
                target = apply(system, UniformDF())
            problem = CollageProblem(target, system.maps, system.delta)
            assert problem.mode == "exact"
            assert_matches_highs(problem, solve_inverse(problem))


def random_grid_problem(case):
    """Seeded grid-mode problem: quantile_ifs maps of a random Beta with
    2..20 cells, fitted to a Beta, step, linear or e.d.f. target by case."""
    rng = np.random.default_rng((5, case))
    source = BetaDF(BetaParams(*rng.uniform(0.5, 5.0, size=2)))
    maps = quantile_ifs(source, int(rng.integers(1, 20))).maps
    kind = case % 4
    if kind == 0:
        target = BetaDF(BetaParams(*rng.uniform(0.5, 5.0, size=2)))
    elif kind == 1:
        target = random_step_df(rng)
    elif kind == 2:
        target = random_linear_df(rng)
    else:
        target = edf_from_sample(rng.uniform(0.02, 0.98, int(rng.integers(3, 40))))
    return CollageProblem(target, maps, np.zeros(len(maps) - 1), grid_size=128)


class TestGridSolverAgainstHighs:
    @pytest.mark.parametrize("case", range(100))
    def test_random_problems(self, case):
        problem = random_grid_problem(case)
        assert problem.mode == "grid"
        sol = solve_inverse(problem)
        assert_matches_highs(problem, sol)
        # p* is on the weight simplex, so it makes a valid system
        assert IfsSystem(problem.maps, sol.p_star, problem.delta).violations() == []


class TestDegenerateRows:
    @pytest.mark.parametrize("values, mode", [([0.0, 2.2250738585e-313, 1.0], "linear"),
                                              ([0.0, 0.9999999999999999, 1.0], "step")])
    def test_rows_a_rounding_apart(self, values, mode):
        # rows of one cell whose w differ by a denormal, so a hull slope
        # overflows to inf, or whose w sum to 2 in rounding, so a pair's
        # 2 - (w_m + w_n) is 0
        maps = [AffineMap.from_intervals((0.0, 1.0), (0.0, 0.5)),
                AffineMap.from_intervals((0.0, 1.0), (0.5, 1.0))]
        target = GridDF([0.0, 0.5, 1.0], values, mode=mode)
        problem = CollageProblem(target, maps, [0.0], grid_size=64)
        assert_matches_highs(problem, solve_inverse(problem))

    @pytest.mark.parametrize("cuts, d_star", [((0.0, 0.4, 1.0), 0.1344),
                                              ((0.0, 0.2, 0.6, 1.0), 16 / 105)])
    def test_negative_zero_target_value(self, cuts, d_star):
        # F(0) = -0.0 is a row's w; its reciprocal -inf in the two-row cell
        # builder used to make the solver reject every t
        target = FuncDF(lambda x: np.where(x == 0.0, -0.0, x * x))
        problem = identity_problem(target, cuts)
        sol = solve_inverse(problem)
        assert_matches_highs(problem, sol)
        assert sol.d_star == pytest.approx(d_star, abs=1e-12)


class TestChainCells:
    """The per-cell bound terms that the forward pass reads."""

    @staticmethod
    def _intervals(cell, w, c, t):
        """Feasibility and stored P_i intervals of one forward pass."""
        cells, t_floor = _chain_cells(np.asarray(cell), np.asarray(w, float),
                                      np.asarray(c, float), max(cell) + 1)
        lows, highs = [], []
        ok = t >= t_floor and _chain_pass(cells, 1.0, t, lows, highs)[0] >= 0.0
        return ok, lows, highs

    @staticmethod
    def _last_cell(cell, w, c):
        """The last cell's top and its terms merged by (q, r), and the t floor."""
        cells, t_floor = _chain_cells(np.asarray(cell), np.asarray(w, float),
                                      np.asarray(c, float), max(cell) + 1)
        top, terms = cells[-1]
        merged = {}
        for cl, cu, q, r in terms:
            lo, hi = merged.get((q, r), (np.inf, -np.inf))
            merged[q, r] = (min(lo, cl), max(hi, cu))
        return top, merged, t_floor

    def test_two_row_cells_match_the_hull_construction(self):
        # a two-row cell takes the closed form; with its first row repeated
        # it has three rows and goes through the monotone chain.  The bound
        # terms must agree, not only the intervals at a few t: a term that a
        # cell loses may bind only at t that the samples miss
        rng = np.random.default_rng(47)
        for trial in range(300):
            w = rng.uniform(0.0, 1.0, 2)
            if trial % 3 == 0:
                w = np.round(w * 2) / 2  # equal w, w = 0 and w = 1
            c = w - rng.uniform(-0.1, 0.1, 2) if trial % 2 else rng.uniform(-0.2, 1.0, 2)
            head_w, head_c = rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 0.6, 3)
            two = ([0, 0, 0, 1, 1], np.r_[head_w, w], np.r_[head_c, c])
            three = ([0, 0, 0, 1, 1, 1], np.r_[head_w, w, w[:1]], np.r_[head_c, c, c[:1]])
            assert self._last_cell(*two) == self._last_cell(*three)
            for t in rng.uniform(0.0, 0.5, 5).tolist():
                assert self._intervals(*two, t) == self._intervals(*three, t)

    def test_assembly_memory_is_linear_in_cells(self):
        # dense rows of 6000 x 3000 doubles would take 144 MB
        k = 3000
        cuts = np.linspace(0.0, 1.0, k + 1)
        maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(k)]
        target = BetaDF(BetaParams(2, 5))
        tracemalloc.start()
        try:
            CollageProblem(target, maps, np.zeros(k - 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def bisection_oracle(problem, t_hi):
    """Plain bisection from the solver's bracket, with a pass at every
    midpoint: (least feasible t, p, number of passes)."""
    total = problem.weight_sum
    cells, t_lo = _chain_cells(problem._cell, problem._w, problem._c, problem.k)
    passes = 2  # the pass at t_hi and the one that stores the intervals
    while t_hi - t_lo > _CHAIN_TOL:
        t = 0.5 * (t_lo + t_hi)
        passes += 1
        if _chain_pass(cells, total, t)[0] >= 0.0:
            t_hi = t
        else:
            t_lo = t
    lows, highs = [], []
    _chain_pass(cells, total, t_hi, lows, highs)
    return t_hi, _chain_weights(cells, total, t_hi, lows, highs), passes


def random_aim_problem(rng, kind, case):
    """Identity cells with offsets that may be negative, quantile_ifs maps or
    maps from [0,1) onto random cells, fitted to a Beta, a step or a linear
    target in turn."""
    target = [lambda: BetaDF(BetaParams(*rng.uniform(0.5, 5.0, size=2))),
              lambda: random_step_df(rng), lambda: random_linear_df(rng)][case % 3]()
    if kind == "identity":
        system = random_identity_system(rng, k_range=(2, 30), negative_delta=True)
        return CollageProblem(target, system.maps, system.delta)
    if kind == "quantile":
        source = BetaDF(BetaParams(*rng.uniform(0.5, 5.0, size=2)))
        maps = quantile_ifs(source, int(rng.integers(1, 20))).maps
        return CollageProblem(target, maps, np.zeros(len(maps) - 1),
                              grid_size=int(rng.integers(16, 200)))
    system = random_contractive_system(rng, k_range=(2, 20))
    return CollageProblem(target, system.maps, system.delta,
                          grid_size=int(rng.integers(16, 200)))


class TestAimedBisection:
    """The solver ends where plain bisection on the same pass ends."""

    @pytest.mark.parametrize("seed, kind", enumerate(["identity", "quantile", "contractive"]))
    def test_bit_identical_to_plain_bisection(self, seed, kind, monkeypatch):
        calls, ends = [], []
        monkeypatch.setattr(inverse, "_chain_pass",
                            lambda *args: calls.append(args[2]) or _chain_pass(*args))
        monkeypatch.setattr(inverse, "_chain_weights",
                            lambda *args: ends.append(args[2]) or _chain_weights(*args))
        rng = np.random.default_rng((53, seed))
        aimed, plain = [], []
        for case in range(110):
            problem = random_aim_problem(rng, kind, case)
            calls.clear()
            ends.clear()
            sol = solve_inverse(problem)
            # the solver's first pass is at the upper end of its bracket
            t_star, p_star, passes = bisection_oracle(problem, calls[0])
            assert ends == [t_star]
            assert sol.p_star.tobytes() == p_star.tobytes()
            assert len(calls) == sol.iterations <= passes + 3
            aimed.append(sol.iterations)
            plain.append(passes)
        assert 3 * sum(aimed) <= sum(plain)

    def test_identity_problems_match_highs(self):
        # identity cells with negative offsets: every exact-mode cell has
        # two rows and takes the closed form of _two_row_cells
        rng = np.random.default_rng((53, 0))
        for case in range(110):
            problem = random_aim_problem(rng, "identity", case)
            assert_matches_highs(problem, solve_inverse(problem))

    def test_zero_slack_is_feasible(self):
        # one cell that asks y >= 1.5 - t of y = P_1 = 1: at t = 0.5 the
        # interval [1, 1] is a point, and the pass makes t the feasible end
        cells = [(1.5, ())]
        assert _chain_pass(cells, 1.0, 0.5) == (0.0, 1.0)
        bad, ok = (0.0, -1.0, 1.0), (1.0, 0.5, 1.0)
        assert inverse._probe(cells, 1.0, 0.5, bad, ok) == (bad, (0.5, 0.0, 1.0))


class TestConvexity:
    def test_segment_endpoints(self):
        problem = single_point_problem(0.35)
        p1, p2 = np.array([0.2, 0.8]), np.array([0.7, 0.3])
        lhs, rhs = convexity_witness(problem, p1, p2, 0.0)
        assert lhs == rhs == collage_distance(problem, p2)
        lhs, rhs = convexity_witness(problem, p1, p2, 1.0)
        assert lhs == rhs == collage_distance(problem, p1)

    def test_random_chords(self):
        rng = np.random.default_rng(31)
        problem = single_point_problem(0.42)
        for _ in range(200):
            p1 = rng.normal(scale=2.0, size=2)
            p2 = rng.normal(scale=2.0, size=2)
            lam = rng.uniform(0.0, 1.0)
            lhs, rhs = convexity_witness(problem, p1, p2, lam)
            assert lhs <= rhs + 1e-10


class TestCollageBound:
    def test_arithmetic(self):
        assert collage_bound(0.1, 0.5) == pytest.approx(0.2)
        assert collage_bound(0.0, 0.9) == 0.0

    def test_validation(self):
        for c in (1.0, -3.0, float("-inf"), float("inf"), float("nan")):
            with pytest.raises(ValueError, match="< 1"):
                collage_bound(0.1, c)
        for epsilon in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="non-negative"):
                collage_bound(epsilon, 0.5)

    def test_single_point_bound_holds(self):
        # solver output at x1 = 0.3: D* = 0.21, c = 0.7, bound = 0.7
        x1 = 0.3
        sol = solve_inverse(single_point_problem(x1))
        c = float(np.max(sol.p_star))
        bound = collage_bound(sol.d_star, c)
        assert bound == pytest.approx(0.7, abs=1e-8)
        maps = [AffineMap.identity(0.0, x1), AffineMap.identity(x1, 1.0)]
        system = IfsSystem(maps, sol.p_star, [0.0])
        result = fixed_point(system, tol=1e-9)
        assert sup_distance(UniformDF(), result.df) <= bound + 1e-6


class TestProblemValidation:
    def test_offsets_swallow_simplex(self):
        maps = [AffineMap.identity(0.0, 0.5), AffineMap.identity(0.5, 1.0)]
        with pytest.raises(ValueError, match="positive"):
            CollageProblem(UniformDF(), maps, [1.0])

    def test_structural_check(self):
        maps = [AffineMap.identity(0.0, 0.4), AffineMap.identity(0.5, 1.0)]
        with pytest.raises(ValueError, match="gap"):
            CollageProblem(UniformDF(), maps, [0.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1.5, -0.2])
    def test_target_values_checked_at_the_points(self, value):
        # the grid point 0.3 is no row's preimage, so only its F(x) reads the
        # value; a NaN there used to make solve_inverse spin
        spot = np.linspace(0.0, 1.0, 11)[3]
        target = FuncDF(lambda x: np.where(x == spot, value, x))
        maps = quantile_ifs(BetaDF(BetaParams(2, 2)), 3).maps
        with pytest.raises(ValueError, match=r"target values must lie in \[0,1\]"):
            CollageProblem(target, maps, np.zeros(len(maps) - 1), grid_size=11)
