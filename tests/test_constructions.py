import logging

import numpy as np
import pytest

from ifsdist import (
    BetaDF,
    BetaParams,
    FuncDF,
    GridDF,
    UniformDF,
    contractivity,
    edf_from_sample,
    edf_ifs,
    empirical_quantile,
    fixed_point,
    iterate_exact,
    quantile_estimator,
    quantile_ifs,
    sup_distance,
    validate,
)

BETA22_POLY = FuncDF(lambda x: 3.0 * x**2 - 2.0 * x**3, vectorized=True)


def poly_root(level, lo=0.0, hi=1.0):
    """Bisection oracle for 3x^2 - 2x^3 = level, independent of the package."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 3 * mid**2 - 2 * mid**3 < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEdfIfs:
    def test_two_point_parameters(self):
        system = edf_ifs([0.3, 0.7])
        assert np.allclose(system.p, [0.0, 0.5, 0.5], atol=0)
        assert np.allclose(system.delta, [0.25, -0.25], atol=0)
        assert system.identity_partition
        assert validate(system) == []

    def test_weight_normalization_any_n(self):
        rng = np.random.default_rng(3)
        for n in range(2, 41):
            sample = np.unique(rng.uniform(0.01, 0.99, size=n))
            if len(sample) < n:
                continue
            system = edf_ifs(sample)
            total = float(np.sum(system.p) + np.sum(system.delta))
            assert abs(total - 1.0) <= 1e-12
            assert validate(system) == []

    def test_two_point_fixed_values(self):
        # per-cell equations u = p u + offset solve to (0, 0.5, 1)
        result = fixed_point(edf_ifs([0.3, 0.7]), tol=1e-10)
        got = result.df.eval_array(np.array([0.15, 0.5, 0.85]))
        assert np.max(np.abs(got - np.array([0.0, 0.5, 1.0]))) <= 1e-10

    def test_fixed_point_is_the_edf(self):
        rng = np.random.default_rng(5)
        sample = np.unique(rng.uniform(0.02, 0.98, size=10))
        result = fixed_point(edf_ifs(sample), tol=1e-11)
        d = sup_distance(result.df, edf_from_sample(sample))
        assert d <= 1e-10

    def test_contractivity(self):
        system = edf_ifs(np.linspace(0.1, 0.9, 5))
        assert contractivity(system) == pytest.approx(0.2, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            edf_ifs([0.5])
        with pytest.raises(ValueError, match="duplicate"):
            edf_ifs([0.4, 0.4, 0.7])
        with pytest.raises(ValueError, match="strictly inside"):
            edf_ifs([0.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            edf_ifs([0.2, float("nan"), 0.5])
        with pytest.raises(ValueError, match="finite"):
            quantile_estimator([0.2, float("nan"), 0.5, 0.7], 2)


class TestQuantileIfs:
    def test_uniform_quartiles(self):
        system = quantile_ifs(UniformDF(), 3)
        starts = [m.c for m in system.maps]
        assert starts == pytest.approx([0.0, 0.25, 0.5, 0.75], abs=1e-11)
        assert np.allclose(system.p, 0.25, atol=1e-11)
        assert np.all(system.delta == 0.0)
        assert validate(system) == []

    def test_uniform_is_fixed(self):
        result = fixed_point(quantile_ifs(UniformDF(), 3), tol=1e-9)
        assert sup_distance(result.df, UniformDF()) <= 1e-9

    def test_beta22_quantiles_against_root_oracle(self):
        system = quantile_ifs(BETA22_POLY, 3)
        starts = np.array([m.c for m in system.maps[1:]])
        oracle = np.array([poly_root(i / 4) for i in (1, 2, 3)])
        assert np.max(np.abs(starts - oracle)) < 1e-10

    def test_beta22_fixed_point_interpolates(self):
        system = quantile_ifs(BETA22_POLY, 3)
        result = fixed_point(system, tol=1e-10)
        xs = np.array([m.c for m in system.maps[1:]])
        got = result.df.eval_array(xs)
        assert np.max(np.abs(got - np.array([0.25, 0.5, 0.75]))) <= 1e-9

    def test_every_iterate_interpolates_any_start(self):
        rng = np.random.default_rng(7)
        system = quantile_ifs(BETA22_POLY, 5)
        xs = np.array([m.c for m in system.maps[1:]])
        levels = np.arange(1, 6) / 6.0
        starts = [UniformDF(), edf_from_sample(rng.uniform(0.05, 0.95, size=6))]
        for u0 in starts:
            for s in (1, 2, 4, 9):
                it = iterate_exact(system, u0, s)
                assert np.max(np.abs(it.eval_array(xs) - levels)) <= 1e-12

    @pytest.mark.parametrize("target", [BetaDF(BetaParams(2, 5)), BetaDF(BetaParams(0.5, 0.5)),
                                        BETA22_POLY], ids=["beta25", "beta55", "poly"])
    def test_cuts_match_scalar_bisection(self, target):
        # the cuts come from one bisection over all levels; each must be
        # bit-identical to a scalar bisection on eval with the same stop
        def scalar_cut(level):
            lo, hi = 0.0, 1.0
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                if target.eval(mid) < level:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        cuts = [m.c for m in quantile_ifs(target, 7).maps[1:]]
        assert cuts == [scalar_cut(i / 8) for i in range(1, 8)]

    def test_steep_u_shaped_target(self):
        # F(x) ~ x^0.1 / 1.97 near 0 puts the 1/31 quantile at 1.08e-12, where
        # the 1e-12 bracket still misses the level by 7.6e-4.  Near 1 the
        # doubles are 1.1e-16 apart and F rises by about 3.5e-7 between two
        # of them, so there the cut is a double next to the crossing.
        target = BetaDF(BetaParams(0.1, 0.1))
        system = quantile_ifs(target, 30)
        assert validate(system) == []
        xs = np.array([m.c for m in system.maps[1:]])
        levels = np.arange(1, 31) / 31
        residual = np.abs(target.eval_array(xs) - levels)
        assert np.max(residual[:15]) <= 1e-9
        crossed = ((target.eval_array(np.nextafter(xs, 0.0)) < levels)
                   & (levels <= target.eval_array(np.nextafter(xs, 1.0))))
        assert np.all((residual <= 1e-9) | crossed)

    @pytest.mark.parametrize("target", [GridDF([0.0, 0.5, 1.0], [0.0, 0.6, 1.0], mode="step"),
                                        edf_from_sample([0.5])])
    def test_rejects_a_level_inside_a_jump(self, target):
        # the one level 1/2 lies inside F's jump at 0.5, so no cut meets it
        with pytest.raises(ValueError, match="quantile solve failed"):
            quantile_ifs(target, 1)

    def test_one_ulp_rise_is_not_a_jump(self):
        # a continuous F (linear mode) rising by 0.6 over the one ulp past 0.5:
        # no double meets the level 1/2 within 1e-9, and the cut ends on the
        # double below the crossing, whose own left limit is below the level
        x1 = np.nextafter(0.5, 1.0)
        system = quantile_ifs(GridDF([0.0, 0.5, x1, 1.0], [0.0, 0.2, 0.8, 1.0]), 1)
        assert validate(system) == []
        assert system.maps[1].c == 0.5

    def test_rejects_non_invertible_cdf(self):
        # a step function sends several levels to the same abscissa
        step = edf_from_sample([0.5])
        with pytest.raises(ValueError, match="strictly increasing|quantile solve"):
            quantile_ifs(step, 3)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            quantile_ifs(UniformDF(), 0)


class TestQuantileEstimator:
    def test_median_split(self):
        sample = [0.1, 0.3, 0.6, 0.8, 0.9]
        system = quantile_estimator(sample, 2)
        median = empirical_quantile(sample, 0.5)
        assert [m.c for m in system.maps] == pytest.approx([0.0, median])
        assert np.allclose(system.p, 0.5, atol=0)
        result = fixed_point(system, tol=1e-10)
        assert result.df.eval(median) == pytest.approx(0.5, abs=1e-9)

    def test_normalized_and_valid(self):
        rng = np.random.default_rng(11)
        sample = rng.uniform(0.01, 0.99, size=40)
        system = quantile_estimator(sample, 10)
        assert float(np.sum(system.p)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(system.delta == 0.0)
        assert validate(system) == []

    def test_fixed_point_through_quantile_nodes(self):
        rng = np.random.default_rng(13)
        sample = np.unique(rng.uniform(0.01, 0.99, size=60))
        k = 6
        system = quantile_estimator(sample, k)
        result = fixed_point(system, tol=1e-10)
        for i in range(1, k):
            q = empirical_quantile(sample, i / k)
            assert result.df.eval(q) == pytest.approx(i / k, abs=1e-9)

    def test_uniform_sample_distance_diagnostic(self, caplog):
        # no strict threshold: Kolmogorov-Smirnov-scale deviations, logged only
        rng = np.random.default_rng(17)
        sample = rng.uniform(0.001, 0.999, size=400)
        system = quantile_estimator(sample, 10)
        result = fixed_point(system, tol=1e-8)
        d = sup_distance(result.df, UniformDF(), grid_size=201)
        with caplog.at_level(logging.INFO):
            logging.getLogger(__name__).info(
                "estimator vs uniform: d=%.4f at n=%d (O(n^-1/2) = %.4f)",
                d, len(sample), len(sample) ** -0.5,
            )
        assert d < 0.25  # sanity ceiling only

    def test_tied_sample_merges_cells(self):
        sample = [0.2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.8]
        system = quantile_estimator(sample, 4)
        starts = np.array([m.c for m in system.maps])
        assert np.all(np.diff(starts) > 0)
        assert float(np.sum(system.p)) == pytest.approx(1.0, abs=1e-12)
        assert validate(system) == []
        # the merged cell carries the weight of every collapsed quantile
        assert np.max(system.p) >= 0.5 - 1e-12

    def test_cuts_are_the_per_level_empirical_quantiles(self):
        rng = np.random.default_rng(19)
        for trial in range(100):
            n = int(rng.integers(3, 300))
            if trial % 2:  # ties, so that quantiles coincide and cells merge
                sample = rng.choice(np.arange(1, 10) / 10, size=n)
            else:
                sample = rng.uniform(0.001, 0.999, size=n)
            k = int(rng.integers(2, n))
            levels = [i / k for i in range(1, k)]
            qs = [empirical_quantile(sample, level) for level in levels]
            cuts, first = np.unique(np.concatenate([[0.0], qs]), return_index=True)
            system = quantile_estimator(sample, k)
            assert [m.c for m in system.maps] == cuts.tolist()
            # a merged cell carries one 1/k per level that collapsed into it
            counts = np.diff(np.concatenate([first, [k]]))
            assert system.p == pytest.approx(counts / k, abs=1e-12)

    def test_validation(self):
        sample = [0.2, 0.4, 0.6, 0.8]
        with pytest.raises(ValueError, match=">= 2"):
            quantile_estimator(sample, 1)
        with pytest.raises(ValueError, match="smaller than the sample size"):
            quantile_estimator(sample, 4)


class TestEmpiricalQuantile:
    def test_third_of_three(self):
        # ceil(1/3 * 3) = 1st order statistic
        assert empirical_quantile([0.2, 0.4, 0.9], 1.0 / 3.0) == 0.2

    def test_level_near_one_gives_max(self):
        sample = [0.1, 0.5, 0.7, 0.85]
        assert empirical_quantile(sample, 0.999999) == 0.85

    def test_singleton(self):
        assert empirical_quantile([0.5], 0.5) == 0.5

    def test_integer_rank_boundaries(self):
        sample = [0.1, 0.2, 0.3, 0.4, 0.5]
        # level 2/5 has rank exactly 2 -> second order statistic
        assert empirical_quantile(sample, 0.4) == 0.2
        assert empirical_quantile(sample, 0.41) == 0.3

    def test_level_validation(self):
        with pytest.raises(ValueError, match="outside"):
            empirical_quantile([0.5], 0.0)
        with pytest.raises(ValueError, match="outside"):
            empirical_quantile([0.5], 1.0)

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_quantile([], 0.5)
