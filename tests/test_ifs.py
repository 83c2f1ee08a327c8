import itertools
import time

import numpy as np
import pytest

from ifsdist import (
    AffineMap,
    GridDF,
    IfsSystem,
    UniformDF,
    apply,
    contractivity,
    default_mesh,
    edf_from_sample,
    edf_ifs,
    fixed_point,
    iterate,
    iterate_exact,
    perturbation_bound,
    quantile_estimator,
    quantile_ifs,
    sup_distance,
    system_from_json,
    system_to_json,
    validate,
)

from ifsdist import ifs
from ifsdist.ifs import _CAP, _MapTable, _image_breakpoints

from conftest import (
    random_contractive_system,
    random_identity_system,
    random_linear_df,
    random_step_df,
    random_table,
    reference_image_breakpoints,
)


def two_cell_identity(p=(0.5, 0.5), delta=(0.0,), split=0.5):
    maps = [AffineMap.identity(0.0, split), AffineMap.identity(split, 1.0)]
    return IfsSystem(maps, p, delta)


class TestAffineMap:
    def test_forward_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
            if hi - lo < 1e-3:
                continue
            m = AffineMap.from_intervals((0.0, 1.0), (lo, hi))
            xs = rng.uniform(0.0, 1.0, size=20)
            back = (np.asarray([m.inverse(m.forward(x)) for x in xs]))
            assert np.max(np.abs(back - xs)) < 1e-12

    def test_target_endpoints(self):
        m = AffineMap.from_intervals((0.0, 1.0), (0.25, 0.75))
        assert m.c == pytest.approx(0.25, abs=0)
        assert m.d == pytest.approx(0.75, abs=1e-15)

    def test_identity(self):
        m = AffineMap.identity(0.2, 0.9)
        assert m.is_identity()
        assert m.forward(0.5) == 0.5

    def test_degenerate_intervals_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AffineMap.from_intervals((0.5, 0.5), (0.0, 1.0))
        with pytest.raises(ValueError, match="empty"):
            AffineMap.from_intervals((0.0, 1.0), (0.3, 0.3))


class TestMapTable:
    def test_images_match_the_per_map_loop(self):
        # the per-map loop that the array helper replaced is the reference,
        # concatenated in map order, at a few and at hundreds of points per map
        rng = np.random.default_rng(83)
        for trial in range(120):
            long_runs = trial % 2 == 1
            k = int(rng.integers(1, 9))
            if trial % 3 == 0:  # one shared source, as in the quantile constructions
                a, b = np.zeros(k), np.ones(k)
            elif long_runs:
                a, b = rng.uniform(0.0, 0.3, k), rng.uniform(0.7, 1.0, k)
            else:
                a, b = np.sort(rng.uniform(0.0, 1.0, (2, k)), axis=0)
            slope, intercept = rng.uniform(0.1, 2.0, k), rng.uniform(-1.0, 1.0, k)
            size = int(rng.integers(1500, 3000) if long_runs else rng.integers(0, 40))
            xs = np.concatenate([rng.uniform(0.0, 1.0, size), a[:2], b[:2]])
            ordered = np.sort(xs)
            want = np.concatenate([slope[i] * ordered[(ordered >= a[i]) & (ordered < b[i])]
                                   + intercept[i] for i in range(k)])
            assert np.array_equal(_MapTable(a, b, slope, intercept).images(xs), want)

    def test_cells_match_the_affine_map_constructors(self):
        rng = np.random.default_rng(89)
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 20)), [1.0]])
        cells = list(zip(cuts[:-1], cuts[1:]))
        assert _MapTable.on_cells(cuts, identity=True).maps == tuple(
            AffineMap.identity(c, d) for c, d in cells)
        assert _MapTable.on_cells(cuts, identity=False).maps == tuple(
            AffineMap.from_intervals((0.0, 1.0), (c, d)) for c, d in cells)


class TestImageBreakpoints:
    """The walk, whose capped steps evaluate only the ranks they keep, against
    the np.unique walk over every image, bit for bit."""

    @staticmethod
    def starts(rng):
        return (UniformDF(), random_step_df(rng, max_jumps=30),
                GridDF([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0], [0.0, 0.3, 0.6, 1.0], mode="step"))

    @pytest.mark.parametrize("n", [20, 200, 1000])
    def test_quantile_estimators(self, n):
        # k = 500 at n = 1000 holds hundreds of points per map from the first step
        rng = np.random.default_rng(n)
        sample = np.sort(rng.beta(2.0, 5.0, n))
        for k in (2, (n + 1) // 2):
            table = quantile_estimator(sample, k)._table
            for depth in (1, 2, 4):
                assert np.array_equal(_image_breakpoints(table, UniformDF(), depth),
                                      reference_image_breakpoints(table, UniformDF(), depth))

    def test_edf_partitions(self):
        rng = np.random.default_rng(17)
        for n in (2, 30, 3000):
            table = edf_ifs(np.sort(rng.uniform(0.0, 1.0, n)))._table
            for u0 in self.starts(rng):
                for depth in (1, 3):
                    assert np.array_equal(_image_breakpoints(table, u0, depth),
                                          reference_image_breakpoints(table, u0, depth))

    @pytest.mark.parametrize("overlap", [0.0, 9e-13])
    def test_mixed_sources(self, overlap):
        # with targets overhanging by less than validation's 1e-12 (or by
        # rounding alone) the images are out of order at some seams, and the
        # walk must sort them
        rng = np.random.default_rng(29)
        unordered = 0
        for _ in range(40):
            table = random_table(rng, int(rng.integers(2, 40)), overlap)
            p = rng.random(table.k)
            assert IfsSystem(table, p / p.sum(), np.zeros(table.k - 1)).violations() == []
            ends = table.images(np.concatenate([table.a, np.nextafter(table.b, 0.0)]))
            unordered += bool(np.any(ends[1:] < ends[:-1]))
            for u0 in self.starts(rng):
                for depth in (1, 2, 3):
                    assert np.array_equal(_image_breakpoints(table, u0, depth),
                                          reference_image_breakpoints(table, u0, depth))
        assert unordered > 0 or overlap == 0.0

    def test_many_maps(self):
        # hundreds of maps from mixed sources: runs that share a source share
        # their x-gaps, but ties are looked for in each run's own slice only
        rng = np.random.default_rng(31)
        for _ in range(12):
            table = random_table(rng, int(rng.integers(40, 401)))
            for u0 in (UniformDF(), random_step_df(rng, max_jumps=30)):
                assert np.array_equal(_image_breakpoints(table, u0, 3),
                                      reference_image_breakpoints(table, u0, 3))

    def test_a_map_per_sample_gap(self):
        # 2999 maps from one source, so 12 million images per capped step
        rng = np.random.default_rng(3000)
        table = quantile_estimator(np.sort(rng.beta(2.0, 5.0, 3000)), 2999)._table
        assert np.array_equal(_image_breakpoints(table, UniformDF(), 5),
                              reference_image_breakpoints(table, UniformDF(), 5))

    def test_capped_steps_evaluate_only_the_kept_ranks(self, monkeypatch):
        # the simulate --exact-sup estimators: five Table-1 Betas, k = ceil(n/2),
        # depth 4; a capped step that formed all k * 4096 images would fail
        # here.  beta(3,5) at n = 300 has two cell ends an ulp apart, so its
        # runs repeat 149 images in each capped step
        sizes = []
        images = _MapTable.images

        def counted(table, xs):
            out = images(table, xs)
            sizes.append(out.size)
            return out

        rng = np.random.default_rng(4)
        systems = [quantile_estimator(np.sort(rng.beta(a, b, n)), (n + 1) // 2)
                   for a, b in ((2, 2), (3, 3), (5, 3), (3, 5), (1, 1))
                   for n in (200, 300, 500, 1000)]
        monkeypatch.setattr(_MapTable, "images", counted)
        found = [iterate_exact(system, UniformDF(), 4).breakpoints() for system in systems]
        monkeypatch.undo()
        assert max(sizes) <= 2 * _CAP
        for system, bps in zip(systems, found):
            assert np.array_equal(bps, reference_image_breakpoints(system._table, UniformDF(), 4))


    def test_overlapping_runs_unite_all_images(self, monkeypatch):
        # targets that overhang the next one's start by up to 9e-13 put a run's
        # last image above the next run's first, so a step of more than 2 _CAP
        # images cannot be ranked in runs and unites them all
        kept_ranks = ifs._kept_ranks
        fell_back = []

        def spied(table, xs, boundary):
            out = kept_ranks(table, xs, boundary)
            fell_back.append(out is None and table.images(xs).size > 2 * _CAP)
            return out

        monkeypatch.setattr(ifs, "_kept_ranks", spied)
        rng = np.random.default_rng(43)
        # breakpoints 1e-15 from either end reach the ends of every full-range map
        grid = np.concatenate([[0.0, 1e-15], np.sort(rng.uniform(0.0, 1.0, 200)),
                               [1.0 - 1e-15, 1.0]])
        u0 = GridDF(grid, np.linspace(0.0, 1.0, grid.size), mode="step")
        for _ in range(12):
            table = random_table(rng, int(rng.integers(60, 120)), 9e-13)
            for depth in (1, 3):
                fell_back.clear()
                assert np.array_equal(_image_breakpoints(table, u0, depth),
                                      reference_image_breakpoints(table, u0, depth))
                assert fell_back[0]

class TestValidate:
    def test_plain_partition_ok(self):
        assert validate(two_cell_identity()) == []

    def test_offset_below_floor(self):
        # delta = -0.6 < -min(0.5, 0.5); the weight sum is off too, and the
        # report must carry both
        system = two_cell_identity(p=(0.5, 0.5), delta=(-0.6,))
        found = validate(system)
        assert any("below -min" in v for v in found)
        assert any("expected 1" in v for v in found)

    def test_overlapping_targets(self):
        maps = [
            AffineMap.from_intervals((0.0, 1.0), (0.0, 0.6)),
            AffineMap.from_intervals((0.0, 1.0), (0.5, 1.0)),
        ]
        system = IfsSystem(maps, (0.5, 0.5), (0.0,))
        assert any("overlap" in v for v in validate(system))

    def test_gap_between_targets(self):
        maps = [
            AffineMap.from_intervals((0.0, 1.0), (0.0, 0.4)),
            AffineMap.from_intervals((0.0, 1.0), (0.5, 1.0)),
        ]
        system = IfsSystem(maps, (0.5, 0.5), (0.0,))
        assert any("gap" in v for v in validate(system))

    def test_no_maps(self):
        found = validate(IfsSystem([], [], []))
        assert "system has no maps" in found
        with pytest.raises(ValueError, match="system has no maps"):
            IfsSystem([], [], []).require_valid()

    def test_targets_out_of_order(self):
        maps = [
            AffineMap.from_intervals((0.0, 1.0), (0.5, 1.0)),
            AffineMap.from_intervals((0.0, 1.0), (0.0, 0.5)),
        ]
        system = IfsSystem(maps, (0.5, 0.5), (0.0,))
        assert validate(system) == ["maps must be ordered by strictly increasing target start"]

    def test_wrong_number_of_weights(self):
        system = two_cell_identity(p=(0.5, 0.25, 0.25))
        assert validate(system) == ["expected 2 weights, got 3"]

    def test_weight_normalization(self):
        system = two_cell_identity(p=(0.5, 0.6))
        assert any("expected 1" in v for v in validate(system))

    @pytest.mark.parametrize("p, delta", [
        ((float("nan"), 0.5), (0.0,)),
        ((0.5, float("inf")), (0.0,)),
        ((0.5, 0.5), (float("nan"),)),
    ])
    def test_non_finite_weights_and_offsets(self, p, delta):
        system = two_cell_identity(p=p, delta=delta)
        assert any("must be finite" in v for v in validate(system))
        with pytest.raises(ValueError, match="finite"):
            system.require_valid()

    def test_non_finite_map_parameters(self):
        # a NaN intercept slips past every ordering and range comparison
        maps = [AffineMap(0.0, 0.5, 1.0, float("nan")), AffineMap.identity(0.5, 1.0)]
        system = IfsSystem(maps, (0.5, 0.5), (0.0,))
        assert any("map parameters must be finite" in v for v in validate(system))

    def test_negative_weight(self):
        system = two_cell_identity(p=(-0.1, 1.1))
        assert any("negative weight" in v for v in validate(system))

    def test_negative_offset_needs_identity(self):
        maps = [
            AffineMap.from_intervals((0.0, 1.0), (0.0, 0.5)),
            AffineMap.from_intervals((0.0, 1.0), (0.5, 1.0)),
        ]
        system = IfsSystem(maps, (0.6, 0.5), (-0.1,))
        assert any("identity-partition" in v for v in validate(system))

    def test_flag_consistency(self):
        # the flag is derived from the maps; a JSON record that contradicts
        # them is rejected, in either direction
        for system, wrong in ((quantile_ifs(UniformDF(), 1), True),
                              (edf_ifs([0.3, 0.7]), False)):
            data = system_to_json(system)
            assert system_from_json(data).identity_partition is not wrong
            data["identity_partition"] = wrong
            with pytest.raises(ValueError, match="identity_partition is"):
                system_from_json(data)

    def test_map_messages_in_order(self):
        # per-map messages come by map, then in check order, before the
        # checks on the whole partition; texts as the per-map loop wrote them
        maps = [AffineMap(-0.1, 0.5, 1.0, 0.0), AffineMap(0.5, 0.5, 1.0, 0.0),
                AffineMap(0.5, 1.2, -1.0, 1.5)]
        assert validate(IfsSystem(maps, (0.3, 0.3, 0.4), (0.0, 0.0))) == [
            "map 0: source [-0.1,0.5) leaves [0,1]",
            "map 0: target [-0.1,0.5) leaves [0,1]",
            "map 1: empty source interval [0.5,0.5)",
            "map 2: slope -1.0 is not positive",
            "map 2: source [0.5,1.2) leaves [0,1]",
            "first target must start at 0, got -0.1",
            "last target must end at 1, got 0.30000000000000004",
            "first source must start at 0, got -0.1",
            "last source must end at 1, got 1.2",
            "targets 1 and 2 leave a gap of 0.5",
        ]

    def test_empty_target_in_floating_point(self):
        # slope * 1 + 0.5 rounds to 0.5, so the target [0.5, 0.5) is empty
        maps = [AffineMap(0.0, 1.0, 0.5, 0.0), AffineMap(0.0, 1.0, 1e-310, 0.5)]
        found = validate(IfsSystem(maps, (0.5, 0.5), (0.0,)))
        assert "map 1: target [0.5,0.5) is empty" in found

    def test_identity_flag_needs_a_valid_partition(self):
        maps = [AffineMap.identity(0.0, 0.5), AffineMap.identity(0.5, 1.0)]
        assert IfsSystem(maps, (0.5, 0.5), (0.0,)).identity_partition
        assert not IfsSystem(maps, (0.5, 0.5), (0.0, 0.0)).identity_partition

    def test_all_violations_reported(self):
        maps = [
            AffineMap.from_intervals((0.0, 1.0), (0.0, 0.6)),
            AffineMap.from_intervals((0.0, 1.0), (0.5, 1.0)),
        ]
        system = IfsSystem(maps, (-0.2, 0.5), (0.0,))
        found = validate(system)
        assert len(found) >= 2  # overlap and weight problems together


class TestApply:
    def test_hand_evaluated_image(self):
        system = two_cell_identity()
        tf = apply(system, UniformDF())
        assert tf.eval(0.25) == pytest.approx(0.125, abs=1e-15)
        assert tf.eval(0.75) == pytest.approx(0.875, abs=1e-15)

    def test_endpoint_preservation(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            system = random_identity_system(rng, negative_delta=True)
            tf = apply(system, random_linear_df(rng))
            assert tf.eval(0.0) == 0.0
            assert tf.eval(1.0) == 1.0

    def test_uniform_fixed_by_its_quantile_system(self):
        system = quantile_ifs(UniformDF(), 3)
        tf = apply(system, UniformDF())
        xs = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(tf.eval_array(xs) - xs)) < 1e-15

    def test_invalid_system_rejected(self):
        system = two_cell_identity(p=(0.9, 0.9))
        with pytest.raises(ValueError, match="invalid IFS system"):
            apply(system, UniformDF())

    def test_jump_sides_at_rounded_image_points(self):
        # a step jump at b maps to a float x = fl(w(b)); the value there must
        # sit on the high side and the left limit on the low side even though
        # the pullback arithmetic rounds within a few ulps of b
        for b, split in [(1 / 3, 0.7), (0.123456789, 0.31), (2 / 7, 0.59)]:
            u0 = GridDF([0.0, b, 1.0], [0.0, 0.6, 1.0], mode="step")
            maps = [
                AffineMap.from_intervals((0.0, 1.0), (0.0, split)),
                AffineMap.from_intervals((0.0, 1.0), (split, 1.0)),
            ]
            system = IfsSystem(maps, (0.5, 0.5), (0.0,))
            tf = apply(system, u0)
            x = maps[0].forward(b)
            p, off = 0.5, 0.0
            assert tf.eval(x) == pytest.approx(p * 0.6 + off, abs=1e-13)
            assert tf.eval_left_limit(x) == pytest.approx(p * 0.0 + off, abs=1e-13)

    def test_right_nudge_stays_below_the_source_end(self):
        # w_2 sends [0,1) onto [.5, .7500000000000001), so w_2^{-1}(0.75) < 1
        # and F there is 0, not its value 1 at the jump at 1
        cuts = [0.0, 0.25, 0.5, 0.7500000000000001, 1.0]
        maps = [AffineMap.from_intervals((0.0, 1.0), (cuts[i], cuts[i + 1])) for i in range(4)]
        system = IfsSystem(maps, (0.25,) * 4, (0.0,) * 3)
        tf = apply(system, GridDF([0.0, 0.02, 1.0], [0.0, 0.0, 1.0], mode="step"))
        assert tf.eval(0.75) == 0.5
        assert tf.eval(0.0) == 0.0  # a target start pulls back to its source start

    def test_left_nudge_stays_above_the_source_start(self):
        # w_1 sends [.5,1) onto [.3,1); just above .3 the preimage is above
        # the jump of F at .5, so the left limit reads F = 0.6 there
        maps = [AffineMap.from_intervals((0.0, 1.0), (0.0, 0.3)),
                AffineMap.from_intervals((0.5, 1.0), (0.3, 1.0))]
        system = IfsSystem(maps, (0.5, 0.5), (0.0,))
        tf = apply(system, GridDF([0.0, 0.5, 1.0], [0.0, 0.6, 1.0], mode="step"))
        assert tf.eval_left_limit(np.nextafter(0.3, 1.0)) == 0.5 + 0.5 * 0.6
        assert tf.eval_left_limit(0.3) == 0.5 * 0.6

    def test_left_limit_at_the_last_target_end(self):
        # every iterate of this system from the uniform is continuous at 1
        # and at 0.9; a left limit at 1 pulls back to the last source end
        # exactly, where a nudge below it would grow by 1/slope per step
        maps = [AffineMap.from_intervals((0.0, 1.0), (0.0, 0.9)),
                AffineMap.from_intervals((0.0, 1.0), (0.9, 1.0))]
        system = IfsSystem(maps, (0.1, 0.9), (0.0,))
        it = iterate_exact(system, UniformDF(), 20)
        assert it.eval_left_limit(1.0) == pytest.approx(1.0, abs=1e-15)
        assert it.eval_left_limit(0.9) == pytest.approx(0.1, abs=1e-15)

    def test_closure_monotone_right_continuous(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            if rng.random() < 0.5:
                system = random_identity_system(rng, negative_delta=True)
            else:
                system = random_contractive_system(rng)
            f = random_step_df(rng) if rng.random() < 0.5 else random_linear_df(rng)
            tf = apply(system, f)
            xs = np.unique(np.concatenate([np.linspace(0, 1, 101), tf.breakpoints()]))
            vals = tf.eval_array(xs)
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))
            interior = xs[xs > 0]
            lefts = tf.eval_left_array(interior)
            # left limit never exceeds the value from the right
            assert np.all(lefts <= tf.eval_array(interior) + 1e-12)


class TestIterate:
    def test_single_step_equals_apply(self):
        rng = np.random.default_rng(41)
        system = random_identity_system(rng)
        f = random_linear_df(rng)
        mesh = default_mesh(system, f)
        one = iterate(system, f, 1)
        direct = apply(system, f)
        assert np.max(np.abs(one.eval_array(mesh) - direct.eval_array(mesh))) < 1e-12

    def test_edf_system_converges_to_steps(self):
        system = edf_ifs([0.3, 0.7])
        out = iterate(system, UniformDF(), 30)
        mids = np.array([0.15, 0.5, 0.85])
        assert np.max(np.abs(out.eval_array(mids) - np.array([0.0, 0.5, 1.0]))) < 1e-8

    def test_one_iteration_of_single_point_system(self):
        # identity maps split at x1 = 0.5 with weights (x1, 1-x1)
        system = two_cell_identity(p=(0.5, 0.5))
        out = iterate(system, UniformDF(), 1)
        assert out.eval(0.25) == pytest.approx(0.125, abs=1e-15)
        # after one iteration this already beats the one-point e.d.f. as an
        # approximation of the uniform target
        d_iterate = sup_distance(iterate_exact(system, UniformDF(), 1), UniformDF())
        d_edf = sup_distance(edf_from_sample([0.5]), UniformDF())
        assert d_iterate < d_edf

    def test_iteration_count_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            iterate(two_cell_identity(), UniformDF(), 0)

    def test_exact_iteration_depth_validation(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            iterate_exact(two_cell_identity(), UniformDF(), 0)


class TestContractivity:
    def test_max_of_weights(self):
        assert contractivity(two_cell_identity(p=(0.3, 0.7))) == 0.7

    def test_equal_weights(self):
        system = quantile_ifs(UniformDF(), 4)
        assert contractivity(system) == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_single_sample_system(self):
        # hand-built n=1 e.d.f. analogue: weights (0, 1) are valid but c = 1
        maps = [AffineMap.identity(0.0, 0.5), AffineMap.identity(0.5, 1.0)]
        system = IfsSystem(maps, (0.0, 1.0), (0.0,))
        assert validate(system) == []
        assert contractivity(system) == 1.0
        with pytest.raises(ValueError, match="not contractive"):
            fixed_point(system)


class TestContraction:
    def test_lipschitz_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            if rng.random() < 0.5:
                system = random_identity_system(rng, negative_delta=rng.random() < 0.5)
            else:
                system = random_contractive_system(rng)
            c = contractivity(system)
            f, g = random_step_df(rng), random_step_df(rng)
            lhs = sup_distance(apply(system, f), apply(system, g))
            rhs = c * sup_distance(f, g)
            assert lhs <= rhs + 1e-12

    def test_banach_cauchy_decay(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            system = random_identity_system(rng)
            c = contractivity(system)
            u = UniformDF()
            gaps = []
            prev = u
            for s in range(1, 6):
                cur = iterate_exact(system, u, s)
                gaps.append(sup_distance(prev, cur, grid_size=65))
                prev = cur
            for g1, g2 in zip(gaps, gaps[1:]):
                assert g2 <= c * g1 + 1e-12


class TestFixedPoint:
    def test_edf_system_recovers_edf(self):
        sample = [0.3, 0.7]
        result = fixed_point(edf_ifs(sample), tol=1e-8)
        d = sup_distance(result.df, edf_from_sample(sample))
        assert d <= 1e-8
        assert result.error_bound <= 1e-8

    def test_uniform_quantile_system(self):
        system = quantile_ifs(UniformDF(), 3)
        result = fixed_point(system, tol=1e-9)
        assert sup_distance(result.df, UniformDF()) <= 1e-9

    def test_single_point_system_step_limit(self):
        system = two_cell_identity(p=(0.5, 0.5))
        result = fixed_point(system, tol=1e-10)
        target = np.array([0.0, 0.0, 1.0, 1.0])
        got = result.df.eval_array(np.array([0.0, 0.25, 0.5, 0.75]))
        assert np.max(np.abs(got - target)) <= 1e-10

    def test_certified_bound_against_longer_run(self):
        # |T^s u - F*| <= c^s and |T^{ms} u - F*| <= c^{ms} at every x
        rng = np.random.default_rng(61)
        identity = [random_identity_system(rng, negative_delta=True) for _ in range(8)]
        rng = np.random.default_rng(61)
        general = [random_contractive_system(rng) for _ in range(100)]
        for system, tol in itertools.product(identity + general, (1e-7, 1e-11)):
            result = fixed_point(system, tol=tol)
            assert result.error_bound <= tol
            # general maps walk all 4097 mesh points, so their comparator
            # runs 2 times deeper, not 10, to keep the test fast
            depth = (10 if system.identity_partition else 2) * result.iterations
            longer = iterate_exact(system, UniformDF(), depth)
            slack = contractivity(system) ** depth
            mesh = default_mesh(system)
            err = np.max(np.abs(result.df.eval_array(mesh) - longer.eval_array(mesh)))
            assert err <= result.error_bound + slack
            if system.identity_partition:
                # F* is constant on each cell and the mesh holds every cell
                # end, so the step sample is within the bound on all of [0,1]
                assert sup_distance(result.df, longer) <= result.error_bound + slack

    def test_least_depth_within_tol(self):
        # log(1e-9)/log(0.1) rounds to 9, but 0.1**9 = 1.0000000000000005e-09
        system = edf_ifs(np.linspace(0.05, 0.95, 10))
        c = contractivity(system)
        result = fixed_point(system, tol=1e-9)
        assert result.error_bound == c**result.iterations <= 1e-9
        assert c ** (result.iterations - 1) > 1e-9

    def test_zero_contractivity(self):
        maps = [AffineMap.identity(0.0, 0.5), AffineMap.identity(0.5, 1.0)]
        system = IfsSystem(maps, (0.0, 0.0), (1.0,))
        result = fixed_point(system, tol=1e-9)
        assert (result.iterations, result.error_bound) == (1, 0.0)
        got = result.df.eval_array(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert np.array_equal(got, [0.0, 0.0, 1.0, 1.0, 1.0])

    def test_df_is_the_operator_iterate(self):
        # the loop returns the sampled iterate T^s u0 that iterate() builds
        rng = np.random.default_rng(67)
        for i in range(24):
            if i % 3 == 2:
                system = random_contractive_system(rng)
            else:
                system = random_identity_system(rng, negative_delta=bool(i % 3))
            result = fixed_point(system, tol=1e-9)
            expected = iterate(system, UniformDF(), result.iterations)
            assert np.array_equal(result.df.grid, expected.grid)
            assert np.array_equal(result.df.values, expected.values)

    HALVES = [AffineMap.from_intervals((0.0, 1.0), (0.0, 0.5)),
              AffineMap.from_intervals((0.0, 1.0), (0.5, 1.0))]

    def test_depth_limit_near_unit_contractivity(self, monkeypatch):
        # c = 0.999999 needs about 2.1e7 steps to reach 1e-9: the limit is
        # checked before the iterate is built, whose mesh walks would hang
        monkeypatch.setattr(ifs, "iterate", lambda *args: pytest.fail("iterate was called"))
        system = IfsSystem(self.HALVES, (0.999999, 0.000001), (0.0,))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"c = 0.999999 needs s = \d+ > 100000 steps "
                                             r"to reach tol = 1e-09"):
            fixed_point(system, 1e-9)
        assert time.perf_counter() - start < 1.0

    def test_depth_below_the_limit(self):
        result = fixed_point(IfsSystem(self.HALVES, (0.99, 0.01), (0.0,)), 1e-9)
        assert result.iterations == 2062 and result.error_bound <= 1e-9

    def test_tolerance_validation(self):
        with pytest.raises(ValueError, match="positive"):
            fixed_point(two_cell_identity(), tol=0.0)
        # NaN fails every comparison, so a check written as tol <= 0 passes it
        with pytest.raises(ValueError, match="positive"):
            fixed_point(two_cell_identity(), tol=float("nan"))


class TestPerturbation:
    def test_identical_parameters(self):
        assert perturbation_bound([0.5, 0.5], [0.5, 0.5], 0.5) == 0.0

    def test_arithmetic(self):
        assert perturbation_bound([0.5, 0.5], [0.4, 0.6], 0.6) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            perturbation_bound([0.5], [0.4, 0.6], 0.5)
        for c in (1.0, -3.0, float("-inf"), float("inf"), float("nan")):
            with pytest.raises(ValueError, match="< 1"):
                perturbation_bound([0.5, 0.5], [0.4, 0.6], c)
        with pytest.raises(ValueError, match="finite"):
            perturbation_bound([float("nan"), 0.5], [0.4, 0.6], 0.5)
        with pytest.raises(ValueError, match="finite"):
            perturbation_bound([0.5, 0.5], [0.4, float("inf")], 0.5)

    def test_dominates_measured_distance(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            base = random_identity_system(rng)
            total = float(np.sum(base.p))
            raw = rng.random(base.k) + 0.05
            p2 = raw / raw.sum() * total
            other = IfsSystem(base.maps, p2, base.delta)
            if other.violations() or np.max(p2) >= 0.95:
                continue
            c = contractivity(base)
            bound = perturbation_bound(base.p, p2, c)
            fp1 = fixed_point(base, tol=1e-9)
            fp2 = fixed_point(other, tol=1e-9)
            assert sup_distance(fp1.df, fp2.df) <= bound + 1e-6


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(71)
        for system in (
            edf_ifs([0.3, 0.7]),
            quantile_ifs(UniformDF(), 3),
            random_identity_system(rng, negative_delta=True),
            random_contractive_system(rng),
        ):
            data = system_to_json(system)
            back = system_from_json(data)
            assert np.array_equal(back.p, system.p)
            assert np.array_equal(back.delta, system.delta)
            assert back.identity_partition == system.identity_partition
            for m1, m2 in zip(back.maps, system.maps):
                assert (m1.a, m1.b, m1.slope, m1.intercept) == (
                    m2.a, m2.b, m2.slope, m2.intercept,
                )
            assert validate(back) == []

    def test_malformed_json(self):
        with pytest.raises(ValueError, match="malformed"):
            system_from_json({"maps": [{"a": 0.0}]})


class TestDefaultMesh:
    def test_contains_all_target_endpoints(self):
        rng = np.random.default_rng(73)
        system = random_contractive_system(rng)
        mesh = default_mesh(system)
        for m in system.maps:
            assert np.any(mesh == m.c)
            assert np.any(mesh == m.d)
