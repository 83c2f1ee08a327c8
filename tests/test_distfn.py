import numpy as np
import pytest

from ifsdist import (
    AffineMap,
    BetaDF,
    BetaParams,
    EmpiricalDF,
    FuncDF,
    GridDF,
    IfsSystem,
    UniformDF,
    edf_from_sample,
    iterate_exact,
    read_function_csv,
    read_sample_file,
    sup_distance,
    write_function_csv,
)

from conftest import random_contractive_system, random_linear_df, random_step_df

# Beta(2,2) CDF closed form (density 6x(1-x) integrated symbolically)
BETA22_POLY = FuncDF(lambda x: 3.0 * x**2 - 2.0 * x**3)
# max |3x^2-2x^3 - x| is attained at 1/2 +- sqrt(3)/6 with value sqrt(3)/18
BETA22_VS_UNIFORM_SUP = 0.09622504486493763


class TestEmpiricalDF:
    def test_single_point_step(self):
        f = edf_from_sample([0.5])
        assert f.eval(0.4) == 0.0
        assert f.eval(0.5) == 1.0

    def test_two_point_count(self):
        # direct count: one of two points <= 0.5
        f = edf_from_sample([0.3, 0.7])
        assert f.eval(0.5) == pytest.approx(0.5, abs=0)

    def test_three_point_count(self):
        # direct count: two of three points <= 0.4
        f = edf_from_sample([0.2, 0.4, 0.9])
        assert f.eval(0.4) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_unsorted_input_is_sorted(self):
        f = edf_from_sample([0.7, 0.3])
        assert list(f.sample) == [0.3, 0.7]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            edf_from_sample([])

    @pytest.mark.parametrize("bad", [[0.0, 0.5], [0.5, 1.0], [-0.1], [1.2]])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="strictly inside"):
            edf_from_sample(bad)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            edf_from_sample([0.4, 0.4, 0.6])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            edf_from_sample([0.2, bad, 0.5])

    @pytest.mark.parametrize("bad", [[0.0, 0.5], [0.5, 1.0], [float("nan")], []])
    def test_constructor_validates_its_sample(self, bad):
        # a point at 0 or 1 would make the grid [0, 0, 0.5, 1], not increasing
        with pytest.raises(ValueError, match="strictly inside|finite|empty"):
            EmpiricalDF(bad)

    def test_counts_are_integers(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            f = edf_from_sample(np.unique(rng.uniform(0.01, 0.99, size=n)))
            xs = rng.uniform(0.0, 1.0, size=50)
            counts = f.eval_array(xs) * f.n
            assert np.allclose(counts, np.round(counts), atol=1e-9)
            assert np.all((counts > -0.5) & (counts < f.n + 0.5))


def searchsorted_edf(sample, xs, side):
    """Oracle: the e.d.f. as a count of sorted sample points, (<= x)/n for
    side="right" and (< x)/n for side="left"."""
    return np.searchsorted(np.sort(sample), xs, side=side) / len(sample)


CARRIERS = {
    "uniform": lambda rng: UniformDF(),
    "func": lambda rng: BETA22_POLY,
    "edf-ties": lambda rng: EmpiricalDF(np.round(rng.uniform(0.06, 0.94, 30), 1)),
    "grid-step": random_step_df,
    "grid-linear": random_linear_df,
    "beta": lambda rng: BetaDF(BetaParams(2, 5)),
    "iterate": lambda rng: iterate_exact(random_contractive_system(rng), random_step_df(rng), 2),
    # a heavy first map: its left-limit preimages of x <= 0 sit on the
    # least double above 0, and 0.7 of it rounds up to that double again
    "iterate-uniform": lambda rng: iterate_exact(
        IfsSystem([AffineMap.from_intervals((0.0, 1.0), (0.0, 0.3)),
                   AffineMap.from_intervals((0.0, 1.0), (0.3, 1.0))], [0.7, 0.3], [0.0]),
        UniformDF(), 1),
}


class TestCarrierContract:
    @pytest.mark.parametrize("kind", sorted(CARRIERS))
    def test_one_point_and_left_limits(self, kind):
        rng = np.random.default_rng(17)
        f = CARRIERS[kind](rng)
        bps = f.breakpoints()
        xs = np.unique(np.concatenate([[0.0, 1.0], bps, np.nextafter(bps, 0.0),
                                       rng.uniform(0.0, 1.0, 40)]))
        vals, lefts = f.eval_array(xs), f.eval_left_array(xs)
        for x, v, lv in zip(xs, vals, lefts):
            assert f.eval(x) == v and f(x) == v
            assert f.eval_left_limit(x) == lv
        # the iterate walks its left limits on their own pullback chain
        assert np.all(lefts <= vals + 1e-12)
        assert np.all(f.eval_left_array(np.array([-0.5, -0.0, 0.0])) == 0.0)

    def test_empirical_matches_counting_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(200):
            sample = rng.uniform(0.06, 0.94, int(rng.integers(1, 60)))
            if trial % 3 == 0:  # ties: a point that occurs r times jumps by r/n
                sample = np.round(sample, 1)
            f = EmpiricalDF(sample)
            xs = np.concatenate([sample, np.nextafter(sample, 0.0), np.nextafter(sample, 1.0),
                                 rng.uniform(0.0, 1.0, 20), [0.0, 1.0]])
            assert f.eval_array(xs).tobytes() == searchsorted_edf(sample, xs, "right").tobytes()
            assert f.eval_left_array(xs).tobytes() == searchsorted_edf(sample, xs, "left").tobytes()
            assert f.n == len(sample) and repr(f) == f"EmpiricalDF(n={len(sample)})"


class TestLeftLimits:
    def test_step_left_limit(self):
        f = edf_from_sample([0.5])
        assert f.eval_left_limit(0.5) == 0.0

    def test_continuity(self):
        assert UniformDF().eval_left_limit(0.5) == 0.5

    def test_two_point_left_limit(self):
        # one of two points strictly below 0.7
        f = edf_from_sample([0.3, 0.7])
        assert f.eval_left_limit(0.7) == pytest.approx(0.5, abs=0)

    def test_left_limit_at_zero_is_zero(self):
        for f in (UniformDF(), edf_from_sample([0.5])):
            assert f.eval_left_limit(0.0) == 0.0


class TestSupDistance:
    def test_identical_functions(self):
        f = edf_from_sample([0.2, 0.6])
        assert sup_distance(f, f) == 0.0
        u = UniformDF()
        assert sup_distance(u, u) == 0.0

    def test_uniform_vs_single_point_edf(self):
        # worst gap sits just left of 0.5: |0.5 - 0| = 0.5
        d = sup_distance(UniformDF(), edf_from_sample([0.5]))
        assert d == pytest.approx(0.5, abs=1e-15)

    def test_beta22_vs_uniform_grid_oracle(self):
        # brute-force oracle on the closed-form polynomial over the same grid
        grid = np.linspace(0.0, 1.0, 200_001)
        oracle = float(np.max(np.abs(3 * grid**2 - 2 * grid**3 - grid)))
        d = sup_distance(BETA22_POLY, UniformDF(), grid_size=200_001)
        assert d == pytest.approx(oracle, abs=1e-12)
        assert d == pytest.approx(BETA22_VS_UNIFORM_SUP, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f, g = random_step_df(rng), random_linear_df(rng)
            assert sup_distance(f, g) == sup_distance(g, f)

    def test_triangle_inequality_exact_carriers(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f, g, h = (random_step_df(rng) for _ in range(3))
            dfh = sup_distance(f, h)
            assert dfh <= sup_distance(f, g) + sup_distance(g, h) + 1e-12

    def test_grid_size_validation(self):
        with pytest.raises(ValueError, match="grid_size"):
            sup_distance(UniformDF(), UniformDF(), grid_size=1)


class TestMonotonicity:
    def test_random_carriers_monotone(self):
        rng = np.random.default_rng(21)
        carriers = [
            UniformDF(),
            BETA22_POLY,
            edf_from_sample(np.unique(rng.uniform(0.01, 0.99, 12))),
            random_step_df(rng),
            random_linear_df(rng),
        ]
        for f in carriers:
            xs = np.sort(rng.uniform(0.0, 1.0, size=200))
            vals = f.eval_array(xs)
            assert np.all(np.diff(vals) >= -1e-12)
            assert f.eval(0.0) == pytest.approx(0.0, abs=1e-15)
            assert f.eval(1.0) == pytest.approx(1.0, abs=1e-15)
            assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestGridDF:
    def test_step_semantics(self):
        g = GridDF([0.0, 0.4, 1.0], [0.0, 0.7, 1.0], mode="step")
        assert g.eval(0.39) == 0.0
        assert g.eval(0.4) == 0.7
        assert g.eval_left_limit(0.4) == 0.0
        assert g.eval(1.0) == 1.0

    def test_linear_semantics(self):
        g = GridDF([0.0, 0.5, 1.0], [0.0, 0.8, 1.0], mode="linear")
        assert g.eval(0.25) == pytest.approx(0.4)
        assert g.eval_left_limit(0.5) == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            GridDF([0.0, 0.5, 0.5, 1.0], [0.0, 0.2, 0.4, 1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            GridDF([0.0, 0.4, 1.0], [0.0, 0.9, 0.5])
        with pytest.raises(ValueError, match="start at 0"):
            GridDF([0.1, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="start at 0"):
            GridDF([0.0, 0.4, 1.0], [0.1, 0.5, 1.0])
        with pytest.raises(ValueError, match="mode"):
            GridDF([0.0, 1.0], [0.0, 1.0], mode="cubic")

    @pytest.mark.parametrize("grid, values, message", [
        ([0.0, 0.5, 1.0], [0.0, float("nan"), 1.0], "values must be finite, found nan"),
        ([0.0, float("inf"), 1.0], [0.0, 0.5, 1.0], "breakpoints must be finite, found inf"),
    ])
    def test_non_finite_entries_are_named(self, grid, values, message):
        # NaN passes every ordering and range comparison of the later checks
        with pytest.raises(ValueError, match=message):
            GridDF(grid, values)


class TestFileIO:
    def test_sample_file_round_trip(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("0.25\n\n0.75\n0.5\n")
        vals = read_sample_file(path)
        assert list(vals) == [0.25, 0.75, 0.5]

    def test_sample_file_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.25\nnot-a-number\n")
        with pytest.raises(ValueError, match="not a number"):
            read_sample_file(path)

    def test_sample_file_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no sample values"):
            read_sample_file(path)

    def test_function_csv_round_trip(self, tmp_path):
        path = tmp_path / "fn.csv"
        f = random_linear_df(np.random.default_rng(3))
        mesh = np.unique(np.concatenate([np.linspace(0, 1, 64), f.breakpoints()]))
        write_function_csv(f, path, mesh=mesh)
        g = read_function_csv(path, mode="linear")
        xs = np.linspace(0.0, 1.0, 301)
        assert np.max(np.abs(f.eval_array(xs) - g.eval_array(xs))) < 1e-14

    @pytest.mark.parametrize("mesh, message", [
        ([0.0, np.nan, 1.5, 1.0], "mesh points must be finite, found nan"),
        ([0.0, 0.5, np.inf], "mesh points must be finite, found inf"),
        ([0.0, 1.5, 1.0], r"mesh points must lie in \[0,1\], found 1.5"),
        ([-0.2, 0.5], r"mesh points must lie in \[0,1\], found -0.2"),
    ], ids=["nan", "inf", "above", "below"])
    def test_function_csv_mesh_outside_the_unit_interval(self, tmp_path, mesh, message):
        path = tmp_path / "fn.csv"
        with pytest.raises(ValueError, match=message):
            write_function_csv(UniformDF(), path, mesh=mesh)
        assert not path.exists()

    def test_function_csv_mesh_gets_both_ends(self, tmp_path):
        # a mesh inside (0,1) is written with the rows at 0 and 1 that a
        # GridDF needs, and reads back
        path = tmp_path / "fn.csv"
        write_function_csv(UniformDF(), path, mesh=[0.7, 0.2, 0.7])
        g = read_function_csv(path)
        assert g.grid.tolist() == g.values.tolist() == [0.0, 0.2, 0.7, 1.0]

    def test_function_csv_non_finite_value(self, tmp_path):
        path = tmp_path / "fn.csv"
        path.write_text("x,value\n0,0\n0.5,nan\n1,1\n")
        with pytest.raises(ValueError, match="values must be finite, found nan"):
            read_function_csv(path)

    def test_function_csv_header_check(self, tmp_path):
        path = tmp_path / "fn.csv"
        path.write_text("a,b\n0,0\n1,1\n")
        with pytest.raises(ValueError, match="header"):
            read_function_csv(path)
