import numpy as np
import pytest

from ifsdist import (
    BetaDF,
    BetaParams,
    SeededRng,
    beta_cdf,
    beta_quantile,
    derive_substream,
    parse_distribution,
    sample_beta,
)
from ifsdist import randstats
from ifsdist.randstats import (_BATCH, _FLOOR, _LANES, _beta_quantile_vec, _mix64,
                               _reg_inc_beta)

from conftest import reference_quantile, reference_reg_inc_beta, reference_uniforms


# Shapes for the bit-identity checks: symmetric, skewed, U-shaped, peaked.
ORACLE_SHAPES = [
    (0.1, 0.1), (0.5, 0.5), (50, 50), (200, 3), (1, 1), (2, 2), (3, 3), (5, 3),
    (3, 5), (0.3, 4), (7, 0.2), (1, 3), (1000, 1000), (0.05, 2),
    # where the window's margin is widest or its guess poorest
    (5000, 5000), (1e4, 3), (0.01, 0.01), (2, 0.05),
]

# Closed-form CDFs for integer parameters, obtained by symbolic integration
# of the densities; these are the independent oracle for the continued
# fraction route.
CLOSED_FORMS = {
    (1, 1): lambda x: x,
    (2, 2): lambda x: 3 * x**2 - 2 * x**3,
    (3, 3): lambda x: 10 * x**3 - 15 * x**4 + 6 * x**5,
    (5, 3): lambda x: 21 * x**5 - 35 * x**6 + 15 * x**7,
    (3, 5): lambda x: 35 * x**3 - 105 * x**4 + 126 * x**5 - 70 * x**6 + 15 * x**7,
}


class TestBetaCdf:
    def test_uniform_is_identity(self):
        params = BetaParams(1, 1)
        for x in (0.0, 0.3, 0.5, 0.999, 1.0):
            assert beta_cdf(params, x) == pytest.approx(x, abs=1e-12)

    def test_symmetry_midpoint(self):
        assert beta_cdf(BetaParams(2, 2), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_value(self):
        # 3x^2 - 2x^3 at x = 1/4
        assert beta_cdf(BetaParams(2, 2), 0.25) == pytest.approx(0.15625, abs=1e-12)

    def test_exact_endpoints(self):
        for ab in CLOSED_FORMS:
            params = BetaParams(*ab)
            assert beta_cdf(params, 0.0) == 0.0
            assert beta_cdf(params, 1.0) == 1.0

    @pytest.mark.parametrize("ab", sorted(CLOSED_FORMS))
    def test_matches_polynomial_oracle(self, ab):
        params = BetaParams(*ab)
        poly = CLOSED_FORMS[ab]
        xs = np.linspace(0.0, 1.0, 1001)
        got = BetaDF(params).eval_array(xs)
        assert np.max(np.abs(got - poly(xs))) < 1e-10

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = rng.uniform(0.5, 6.0, size=2)
            x = rng.uniform(0.0, 1.0)
            lhs = beta_cdf(BetaParams(a, b), x)
            rhs = 1.0 - beta_cdf(BetaParams(b, a), 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone_on_grid(self):
        xs = np.linspace(0.0, 1.0, 1000)
        for ab in CLOSED_FORMS:
            vals = BetaDF(BetaParams(*ab)).eval_array(xs)
            assert np.all(np.diff(vals) >= -1e-14)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="outside"):
            beta_cdf(BetaParams(2, 2), 1.5)

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        for trial in range(200):
            a, b = np.exp(rng.uniform(np.log(0.1), np.log(1000.0), size=2))
            # alternately the distribution's bulk and anywhere in (0,1)
            x = float(rng.beta(a, b)) if trial % 2 else float(rng.uniform())
            x = min(max(x, 1e-300), 1.0 - 1e-16)
            with mpmath.workdps(30):
                want = float(mpmath.betainc(a, b, 0, x, regularized=True))
            assert beta_cdf(BetaParams(a, b), x) == pytest.approx(want, abs=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BetaParams(0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            BetaParams(2.0, -1.0)
        for bad in ((np.inf, 2.0), (2.0, np.inf), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError, match="must be finite and positive"):
                BetaParams(*bad)


class TestBetaQuantile:
    def test_uniform_identity(self):
        assert beta_quantile(BetaParams(1, 1), 0.3) == pytest.approx(0.3, abs=1e-10)

    def test_symmetry_midpoint(self):
        assert beta_quantile(BetaParams(2, 2), 0.5) == pytest.approx(0.5, abs=1e-10)

    def test_closed_form_inverse(self):
        assert beta_quantile(BetaParams(2, 2), 0.15625) == pytest.approx(0.25, abs=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            a, b = rng.uniform(0.5, 6.0, size=2)
            params = BetaParams(a, b)
            u = rng.uniform(0.001, 0.999)
            assert beta_cdf(params, beta_quantile(params, u)) == pytest.approx(u, abs=1e-9)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="outside"):
            beta_quantile(BetaParams(2, 2), 0.0)
        with pytest.raises(ValueError, match="outside"):
            beta_quantile(BetaParams(2, 2), 1.0)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(12345)
        b = SeededRng(12345)
        assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRng(1)
        b = SeededRng(2)
        assert [a.next_uint64() for _ in range(4)] != [b.next_uint64() for _ in range(4)]

    def test_uniform_range(self):
        rng = SeededRng(99)
        us = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)

    def test_known_splitmix_outputs(self):
        # reference values of splitmix64 from seed 0 (state advances by the
        # golden-ratio constant before mixing)
        rng = SeededRng(0)
        assert rng.next_uint64() == 0xE220A8397B1DCDAF
        assert rng.next_uint64() == 0x6E789E6AA1B965F4
        assert rng.next_uint64() == 0x06C45D188009454F

    def test_substreams_deterministic_and_distinct(self):
        s0 = derive_substream(42, 0)
        assert s0 == derive_substream(42, 0)
        others = {derive_substream(42, i) for i in range(100)}
        assert len(others) == 100


class TestSampleBeta:
    def test_determinism(self):
        a = sample_beta(BetaParams(2, 2), 50, SeededRng(7))
        b = sample_beta(BetaParams(2, 2), 50, SeededRng(7))
        assert np.array_equal(a, b)

    def test_values_strictly_inside(self):
        xs = sample_beta(BetaParams(3, 5), 500, SeededRng(3))
        assert np.all((xs > 0.0) & (xs < 1.0))

    @pytest.mark.parametrize("ab, at_one", [((2, 0.05), 319), ((0.1, 0.1), 31)])
    def test_steep_shapes_round_to_one(self, ab, at_one):
        # quantiles above 1 - 2^-54 round to 1.0; none rounds to 0
        xs = sample_beta(BetaParams(*ab), 2000, SeededRng(derive_substream(0, 0)))
        assert np.count_nonzero(xs == 1.0) == at_one
        assert np.all((xs > 0.0) & (xs <= 1.0))

    def test_quantiles_below_the_floor_end_on_it(self):
        # the 9 quantiles of trial 0 below 2^-61 all return the least midpoint
        xs = sample_beta(BetaParams(0.05, 2), 100, SeededRng(derive_substream(0, 0)))
        assert _FLOOR == 2.0**-61
        assert xs.min() == _FLOOR
        assert np.count_nonzero(xs == _FLOOR) == 9

    def test_uniform_mean_clt_band(self):
        # var 1/12, 3 sigma over n=1e4 is 0.0087 < 0.02
        xs = sample_beta(BetaParams(1, 1), 10_000, SeededRng(101))
        assert abs(float(np.mean(xs)) - 0.5) < 0.02

    def test_beta22_mean_clt_band(self):
        # var 1/20, 3 sigma over n=1e4 is 0.0067 < 0.01
        xs = sample_beta(BetaParams(2, 2), 10_000, SeededRng(202))
        assert abs(float(np.mean(xs)) - 0.5) < 0.01

    def test_size_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            sample_beta(BetaParams(2, 2), 0, SeededRng(1))

    def test_numpy_size_accepted(self):
        want = sample_beta(BetaParams(2, 2), 10, SeededRng(0))
        got = sample_beta(BetaParams(2, 2), np.int64(10), SeededRng(0))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2.5, True], ids=["float", "bool"])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            sample_beta(BetaParams(2, 2), n, SeededRng(0))


class TestParseDistribution:
    def test_beta_spec(self):
        assert parse_distribution("beta:2,2") == BetaParams(2.0, 2.0)
        assert parse_distribution("beta:3.5,1") == BetaParams(3.5, 1.0)

    def test_uniform_alias(self):
        assert parse_distribution("uniform") == BetaParams(1.0, 1.0)

    def test_label_round_trip(self):
        for spec in ("beta:2,2", "beta:5,3"):
            assert parse_distribution(spec).label() == spec

    @pytest.mark.parametrize("bad", ["gauss:0,1", "beta:2", "beta:a,b", "beta:1,2,3", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_distribution(bad)

    @pytest.mark.parametrize("bad", ["beta:inf,2", "beta:2,inf", "beta:0,2", "beta:-1,2",
                                     "beta:nan,1"])
    def test_undefined_shapes_keep_their_message(self, bad):
        with pytest.raises(ValueError, match="must be finite and positive"):
            parse_distribution(bad)


class TestAgainstReferences:
    @pytest.mark.parametrize("ab", ORACLE_SHAPES)
    def test_cdf_bit_identical(self, ab):
        rng = np.random.default_rng(31)
        # one point to more than a bisection check's batch, with the special
        # values 0, 1 and NaN
        for size in (1, 3, 20, 64, 65, 700, _BATCH + 5):
            xs = rng.random(size)
            if size >= 3:
                xs[:3] = [0.0, 1.0, np.nan]
            assert np.array_equal(_reg_inc_beta(*ab, xs), reference_reg_inc_beta(*ab, xs),
                                  equal_nan=True)
        # every point below the symmetry split, or every point at or above it:
        # one half of the continued-fraction pass is empty
        split = (ab[0] + 1.0) / (ab[0] + ab[1] + 2.0)
        for size in (1, 20, 700):
            for xs in (np.nextafter(split, 0.0) * rng.random(size),
                       split + (1.0 - split) * rng.random(size)):
                assert np.array_equal(_reg_inc_beta(*ab, xs), reference_reg_inc_beta(*ab, xs))

    def test_lane_past_the_term_cap_keeps_its_last_value(self, monkeypatch):
        # at alpha = beta = 1e6 the fraction near x = 0.5 is still moving
        # after _CF_MAX_ITER (400) terms
        xs = np.linspace(0.5 - 1e-4, 0.5 + 1e-4, 9)
        capped = _reg_inc_beta(1e6, 1e6, xs)
        assert np.array_equal(capped, reference_reg_inc_beta(1e6, 1e6, xs))
        assert np.all(np.isfinite(capped)) and np.all((capped >= 0.0) & (capped <= 1.0))
        monkeypatch.setattr(randstats, "_CF_MAX_ITER", 5000)
        longer = _reg_inc_beta(1e6, 1e6, xs)
        assert np.any(capped != longer)
        assert np.max(np.abs(capped - longer)) <= 1e-9

    @pytest.mark.parametrize("ab", ORACLE_SHAPES)
    def test_quantile_bit_identical(self, ab):
        ends = np.array([1e-12, 1.0 - 1e-12])
        params = BetaParams(*ab)
        assert np.array_equal(_beta_quantile_vec(params, ends), reference_quantile(*ab, ends))
        # one point, and more points than one block of lanes
        for n in (1, _LANES + 200):
            us = SeededRng(n).uniforms(n)
            assert np.array_equal(_beta_quantile_vec(params, us), reference_quantile(*ab, us))

    @pytest.mark.parametrize("spoil", [
        lambda a, b, g: g * (1.0 + 1e-9), lambda a, b, g: g * (1.0 - 1e-6),
        lambda a, b, g: np.full_like(g, 0.5), lambda a, b, g: np.full_like(g, np.nan),
        lambda a, b, g: 0.5 * (g + randstats._window(a, b, g)[0]),
        lambda a, b, g: 0.5 * (g + randstats._window(a, b, g)[1]),
    ], ids=["up-1e-9", "down-1e-6", "half", "nan", "window-low", "window-high"])
    def test_poor_guess_only_costs_time(self, spoil, monkeypatch):
        # a window around a wrong guess fails its end tests, and the lane's
        # steps are all checked; a guess off by less passes them, and the
        # steps inside its window are checked
        guess = randstats._quantile_guess
        monkeypatch.setattr(randstats, "_quantile_guess",
                            lambda a, b, us: spoil(a, b, guess(a, b, us)))
        us = SeededRng(8).uniforms(300)
        for ab in ((2, 2), (0.5, 0.5), (200, 3)):
            assert np.array_equal(_beta_quantile_vec(BetaParams(*ab), us),
                                  reference_quantile(*ab, us))

    @pytest.mark.parametrize("ab", [(2, 2), (0.5, 0.5), (200, 3)])
    def test_sample_bit_identical(self, ab):
        for n, seed in ((1, 4), (37, 5), (600, 6)):
            want = reference_quantile(*ab, reference_uniforms(SeededRng(seed), n))
            assert np.array_equal(sample_beta(BetaParams(*ab), n, SeededRng(seed)), want)


class TestEvaluationCount:
    @pytest.mark.parametrize("ab", [(2, 2), (3, 3), (5, 3), (3, 5)])
    def test_points_per_variate(self, ab, monkeypatch):
        # steps outside the window around the guess are decided without a
        # CDF evaluation; plain bisection evaluates about 59 points per variate
        points = []

        def counted(a, b, xs):
            points.append(np.size(xs))
            return _reg_inc_beta(a, b, xs)

        monkeypatch.setattr(randstats, "_reg_inc_beta", counted)
        sample_beta(BetaParams(*ab), 1000, SeededRng(0))
        assert sum(points) <= 30 * 1000


class TestVectorStream:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15])
    def test_matches_scalar_stream(self, seed):
        scalar, vector = SeededRng(seed), SeededRng(seed)
        want = [scalar.uniform() for _ in range(300)]
        got = np.concatenate([vector.uniforms(1), vector.uniforms(0), vector.uniforms(299)])
        assert got.tolist() == want
        # the state advanced by exactly the draws taken
        assert vector.next_uint64() == scalar.next_uint64()

    def test_count_must_be_an_integer(self):
        rng, reference = SeededRng(5), SeededRng(5)
        assert np.array_equal(rng.uniforms(np.int64(3)), reference.uniforms(3))
        assert rng.uniform() == reference.uniform()
        with pytest.raises(ValueError, match="count must be an integer, got 2.5"):
            rng.uniforms(2.5)

    def test_mix64_of_the_state_sequence(self):
        rng = SeededRng(12345)
        state = 12345
        for u in rng.uniforms(5):
            state = (state + 0x9E3779B97F4A7C15) % 2**64
            assert u == (_mix64(state) >> 11) * 2.0**-53

    def test_redraws_out_of_range_uniforms(self):
        class Stream:
            """Hands out preset uniforms and counts how many were taken."""

            def __init__(self, values):
                self.values, self.taken = list(values), 0

            def uniforms(self, count):
                out = np.array(self.values[self.taken:self.taken + count])
                self.taken += count
                return out

        lo, hi = 1e-12, 1.0 - 1e-12
        values = [0.0, 0.3, 5e-13, lo, 0.7, hi, 1.0 - 5e-13, 0.9, 0.2, 0.4]
        stream = Stream(values)
        xs = sample_beta(BetaParams(2, 3), 5, stream)
        kept = np.array([0.3, lo, 0.7, hi, 0.9])
        assert np.array_equal(xs, reference_quantile(2, 3, kept))
        # the stream is left just after the fifth accepted draw
        assert stream.taken == 8
