from dataclasses import replace

import numpy as np
import pytest

from ifsdist import (
    BetaDF,
    BetaParams,
    SeededRng,
    TrialConfig,
    UniformDF,
    derive_substream,
    edf_from_sample,
    iterate_exact,
    quantile_estimator,
    run_table,
    run_trial,
    sample_beta,
)
from ifsdist import sim
from ifsdist.sim import CSV_HEADER


def cfg(**kw):
    base = dict(distribution=BetaParams(2, 2), n=20, seed=123)
    base.update(kw)
    return TrialConfig(**base)


class TestTrialConfig:
    def test_auto_k_is_half_n(self):
        assert cfg(n=10).k_count == 5
        assert cfg(n=1000).k_count == 500

    def test_auto_k_floors_at_two(self):
        assert cfg(n=3).k_count == 2

    def test_auto_k_impossible_for_tiny_n(self):
        with pytest.raises(ValueError, match="2 <= k < n"):
            cfg(n=2)

    def test_explicit_k_bounds(self):
        assert cfg(n=10, k=7).k_count == 7
        with pytest.raises(ValueError, match="2 <= k < n"):
            cfg(n=10, k=10)
        with pytest.raises(ValueError, match="2 <= k < n"):
            cfg(n=10, k=1)

    def test_protocol_validation(self):
        with pytest.raises(ValueError, match="iteration"):
            cfg(iters=0)
        with pytest.raises(ValueError, match="eval_points"):
            cfg(eval_points=1)
        with pytest.raises(ValueError, match="trials"):
            cfg(trials=0)

    @pytest.mark.parametrize("field, value, message", [
        ("k", 2.5, "k must be 'auto' or an integer, got 2.5"),
        ("k", "5", "k must be 'auto' or an integer, got '5'"),
        ("k", True, "k must be 'auto' or an integer, got True"),
        ("n", 10.5, "n must be an integer, got 10.5"),
        ("iters", 2.5, "iters must be an integer, got 2.5"),
        ("eval_points", 20.5, "eval_points must be an integer, got 20.5"),
        ("trials", True, "trials must be an integer, got True"),
        ("seed", "0", "seed must be an integer, got '0'"),
    ], ids=["k-float", "k-text", "k-bool", "n-float", "iters-float", "eval_points-float",
            "trials-bool", "seed-text"])
    def test_non_integers_rejected_when_built(self, field, value, message):
        with pytest.raises(ValueError) as exc:
            TrialConfig(**{"distribution": BetaParams(2, 2), "n": 10, field: value})
        assert str(exc.value) == message

    def test_numpy_integers_accepted(self):
        config = cfg(n=np.int64(10), k=np.int32(4), iters=np.int64(2))
        assert (type(config.n), config.k_count) == (int, 4)
        assert run_trial(config, 0) == run_trial(cfg(n=10, k=4, iters=2), 0)

    def test_replace_resolves_auto_again(self):
        config = TrialConfig(distribution=BetaParams(2, 2), n=10)
        assert config.k_count == 5
        assert replace(config, n=100).k_count == 50
        with pytest.raises(ValueError, match="2 <= k < n"):
            replace(cfg(n=10, k=7), n=5)


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(cfg(), 3)
        b = run_trial(cfg(), 3)
        assert a == b

    def test_trials_differ_across_indices(self):
        assert run_trial(cfg(), 0) != run_trial(cfg(), 1)

    def test_diagnostic_override_gives_zero(self, monkeypatch):
        # the target itself as the estimator's iterate: its distance is 0
        config = cfg(distribution=BetaParams(1, 1))
        monkeypatch.setattr(sim, "iterate_exact", lambda system, start, iters: UniformDF())
        result = run_trial(config, 0)
        assert result.d_estimator == 0.0
        assert result.d_edf > 0.0

    def test_distances_bounded(self):
        for i in range(5):
            r = run_trial(cfg(), i)
            assert 0.0 <= r.d_estimator <= 1.0
            assert 0.0 <= r.d_edf <= 1.0
            assert r.ratio == pytest.approx(r.d_estimator / r.d_edf)

    def test_target_evaluated_once_per_trial(self, monkeypatch):
        calls = []
        eval_array = BetaDF.eval_array

        def counted(self, xs):
            calls.append(len(xs))
            return eval_array(self, xs)

        monkeypatch.setattr(BetaDF, "eval_array", counted)
        config = cfg(distribution=BetaParams(5, 3), n=50)
        result = run_trial(config, 2)
        assert calls == [config.eval_points]
        monkeypatch.undo()
        # both distances, bit for bit, from separate evaluations of the target
        sample = sample_beta(config.distribution, config.n, SeededRng(derive_substream(config.seed, 2)))
        estimator = iterate_exact(quantile_estimator(sample, config.k_count), UniformDF(),
                                  config.iters)
        target = BetaDF(config.distribution)
        pts = np.linspace(0.0, 1.0, config.eval_points)
        for g, d in [(estimator, result.d_estimator), (edf_from_sample(sample), result.d_edf)]:
            assert d == float(np.max(np.abs(g.eval_array(pts) - target.eval_array(pts))))

    def test_exact_sup_dominates_pointwise(self):
        r_pts = run_trial(cfg(), 0)
        r_sup = run_trial(cfg(exact_sup=True), 0)
        assert r_sup.d_edf >= r_pts.d_edf - 1e-15
        assert r_sup.d_estimator >= r_pts.d_estimator - 1e-15


class TestRunTable:
    def test_single_trial_row_equals_trial(self):
        config = cfg(trials=1)
        row = run_table([config]).rows[0]
        trial = run_trial(config, 0)
        assert row.mean_a == trial.d_estimator
        assert row.mean_b == trial.d_edf
        assert row.ratio_pct == pytest.approx(100.0 * trial.ratio)

    def test_means_inside_trial_range(self):
        config = cfg(trials=8)
        row = run_table([config]).rows[0]
        das = [r.d_estimator for r in row.results]
        dbs = [r.d_edf for r in row.results]
        assert min(das) <= row.mean_a <= max(das)
        assert min(dbs) <= row.mean_b <= max(dbs)

    def test_both_ratio_aggregations_reported(self):
        row = run_table([cfg(trials=6)]).rows[0]
        assert row.ratio_pct == pytest.approx(100.0 * row.mean_a / row.mean_b)
        per_trial = [100.0 * r.ratio for r in row.results]
        assert row.mean_ratio_pct == pytest.approx(float(np.mean(per_trial)))

    def test_csv_schema(self):
        import csv as csv_mod
        import io

        table = run_table([cfg(trials=2)])
        rows = list(csv_mod.reader(io.StringIO(table.to_csv_text())))
        assert rows[0] == CSV_HEADER.split(",")
        assert CSV_HEADER == "dist,n,k,trials,iters,mean_a,mean_b,ratio_pct"
        dist, n, k, trials, iters, mean_a, mean_b, ratio = rows[1]
        assert dist == "beta:2,2"
        assert (n, k, trials, iters) == ("20", "10", "2", "4")
        # five significant digits in the float columns
        for cell in (mean_a, mean_b, ratio):
            digits = cell.replace(".", "").replace("-", "").lstrip("0")
            assert len(digits) <= 5
            float(cell)

    def test_edf_distance_of_zero_is_rejected(self):
        # at 0 and 1 the e.d.f. equals every target, so two points give mean_b = 0
        with pytest.raises(ValueError, match="beta:2,2 n=20: .* all 2 evaluation points"):
            run_table([cfg(eval_points=2, trials=3)])

    def test_empty_config_list(self):
        with pytest.raises(ValueError, match="no configurations"):
            run_table([])
