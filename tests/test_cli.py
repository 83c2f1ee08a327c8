import json

import numpy as np
import pytest

from ifsdist import (
    AffineMap,
    BetaDF,
    BetaParams,
    CollageProblem,
    beta_quantile,
    collage_distance,
    edf_ifs,
    read_function_csv,
    read_system_json,
    validate,
)
from ifsdist.cli import cli_main
from ifsdist.constructions import empirical_quantile


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    values = [0.31, 0.72, 0.45, 0.18, 0.66, 0.09, 0.57, 0.83]
    path.write_text("".join(f"{v}\n" for v in values))
    return path, sorted(values)


class TestSimulate:
    def test_smoke_single_row(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli_main([
            "simulate", "--dist", "beta:2,2", "--n", "10",
            "--trials", "1", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "dist,n,k,trials,iters,mean_a,mean_b,ratio_pct"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--dist", "beta:3,5", "--n", "10,25",
                "--trials", "3", "--seed", "11"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2), "--jobs", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("IFS_SEED", "99")
        assert cli_main(["simulate", "--dist", "uniform", "--n", "10",
                         "--trials", "2", "--out", str(out1)]) == 0
        monkeypatch.delenv("IFS_SEED")
        assert cli_main(["simulate", "--dist", "uniform", "--n", "10",
                         "--trials", "2", "--seed", "99", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_defaults_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=2\nseed=5\ndist=beta:2,2\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["simulate", "--config", str(cfg), "--n", "10",
                         "--out", str(out1)]) == 0
        # explicit flag wins over the config value
        assert cli_main(["simulate", "--config", str(cfg), "--n", "10",
                         "--seed", "6", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()


class TestInvert:
    def test_edf_self_partition_reaches_zero(self, sample_file, tmp_path):
        path, _ = sample_file
        out = tmp_path / "report.json"
        code = cli_main([
            "invert", "--target", f"edf:{path}",
            "--partition", f"sample:{path}", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["D_star"] <= 1e-10
        assert report["mode"] == "exact"
        assert len(report["p_star"]) == 9

    def test_uniform_target_auto_partition(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main([
            "invert", "--target", "uniform",
            "--partition", "auto:4", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        # identity-partition fixed points are step functions, so the uniform
        # target admits no exact collage: a positive equalized optimum
        assert 0.0 < report["D_star"] < 0.5
        assert len(report["active_constraints"]) >= 2

    @pytest.mark.parametrize("seed", [3, 6, 20])
    def test_random_sample_partition_against_beta25(self, seed, tmp_path):
        # the dense simplex that once solved these LPs raised LpError here
        xs = np.random.default_rng(seed).uniform(0.0, 1.0, 50)
        sample = tmp_path / "cuts.txt"
        sample.write_text("".join(f"{x:.17g}\n" for x in xs))
        out = tmp_path / "report.json"
        code = cli_main(["invert", "--target", "beta:2,5",
                         "--partition", f"sample:{sample}", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        cuts = np.concatenate([[0.0], np.sort(xs), [1.0]])
        maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
        problem = CollageProblem(BetaDF(BetaParams(2, 5)), maps, np.zeros(len(maps) - 1))
        assert report["D_star"] == collage_distance(problem, report["p_star"])

    def test_unordered_sample_partition_is_sorted(self, tmp_path):
        reports = []
        for name, values in (("shuffled", "0.6\n0.2\n0.4\n"), ("sorted", "0.2\n0.4\n0.6\n")):
            cuts, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
            cuts.write_text(values)
            assert cli_main(["invert", "--target", "beta:2,2",
                             "--partition", f"sample:{cuts}", "--out", str(out)]) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("prefix,values,message", [
        ("", "0.6\n0.2\n0.4\n", "strictly increasing"),
        ("", "0.2\n0.4\n0.4\n", "strictly increasing"),
        ("", "0.2\n0.4\n1.0\n", "inside (0,1)"),
        ("", "-0.1\n0.4\n", "inside (0,1)"),
        ("", "0.2\nnan\n", "finite"),
        ("sample:", "0.4\n0.2\n0.4\n", "duplicate"),
        ("sample:", "0.4\n0.0\n", "inside (0,1)"),
        ("sample:", "0.4\n1.5\n", "inside (0,1)"),
        ("sample:", "0.4\ninf\n", "finite"),
    ], ids=["unordered", "duplicate", "at-one", "negative", "nan", "sample-duplicate",
            "sample-at-zero", "sample-above-one", "sample-inf"])
    def test_bad_partition_is_rejected(self, prefix, values, message, tmp_path, capsys):
        cuts = tmp_path / "cuts.txt"
        cuts.write_text(values)
        out = tmp_path / "report.json"
        code = cli_main(["invert", "--target", "beta:2,2",
                         "--partition", f"{prefix}{cuts}", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_nan_in_target_sample_is_rejected(self, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        sample.write_text("0.2\nnan\n0.5\n")
        out = tmp_path / "report.json"
        code = cli_main(["invert", "--target", f"edf:{sample}",
                         "--partition", "auto:4", "--out", str(out)])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_target(self, tmp_path):
        fn = tmp_path / "target.csv"
        xs = np.linspace(0.0, 1.0, 21)
        fn.write_text("x,value\n" + "".join(f"{x},{x**2}\n" for x in xs))
        out = tmp_path / "report.json"
        code = cli_main([
            "invert", "--target", str(fn), "--target-mode", "linear",
            "--partition", "auto:3", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["D_star"] > 0.0


class TestApproximate:
    def test_quantile_values_in_dump(self, tmp_path):
        out = tmp_path / "approx.csv"
        code = cli_main([
            "approximate", "--dist", "beta:2,2", "--points", "3",
            "--iters", "4", "--out", str(out),
        ])
        assert code == 0
        dumped = read_function_csv(out, mode="linear")
        params = BetaParams(2, 2)
        for i in (1, 2, 3):
            x_i = beta_quantile(params, i / 4)
            assert dumped.eval(x_i) == pytest.approx(i / 4, abs=1e-9)


class TestEstimate:
    def test_passes_through_empirical_quantiles(self, sample_file, tmp_path):
        path, values = sample_file
        out = tmp_path / "est.csv"
        code = cli_main([
            "estimate", "--sample", str(path), "--k", "4",
            "--iters", "2", "--out", str(out),
        ])
        assert code == 0
        dumped = read_function_csv(out, mode="linear")
        for i in (1, 2, 3):
            q = empirical_quantile(values, i / 4)
            assert dumped.eval(q) == pytest.approx(i / 4, abs=1e-9)


class TestEdfIfsCommand:
    def test_system_dump_round_trips(self, sample_file, tmp_path):
        path, values = sample_file
        out = tmp_path / "system.json"
        assert cli_main(["edf-ifs", "--sample", str(path), "--out", str(out)]) == 0
        system = read_system_json(out)
        assert validate(system) == []
        assert system.identity_partition
        assert len(system.maps) == len(values) + 1
        # bit-exact through the file: same floats as a direct construction
        direct = edf_ifs(values)
        assert np.array_equal(system.p, direct.p)
        assert np.array_equal(system.delta, direct.delta)
        for m1, m2 in zip(system.maps, direct.maps):
            assert (m1.a, m1.b, m1.slope, m1.intercept) == (
                m2.a, m2.b, m2.slope, m2.intercept,
            )

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_is_rejected(self, bad, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        sample.write_text(f"0.2\n{bad}\n0.5\n")
        out = tmp_path / "o.json"
        assert cli_main(["edf-ifs", "--sample", str(sample), "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert cli_main(["simulate", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        out = tmp_path / "x.json"
        code = cli_main(["edf-ifs", "--sample", "/does/not/exist.txt", "--out", str(out)])
        assert code == 2

    def test_validation_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli_main(["simulate", "--dist", "beta:2,2", "--n", "10",
                         "--k", "10", "--trials", "1", "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_jobs_below_one(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli_main(["simulate", "--dist", "beta:2,2", "--n", "10",
                         "--trials", "1", "--jobs", "0", "--out", str(out)])
        assert code == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_distribution_spec(self, tmp_path):
        out = tmp_path / "x.csv"
        code = cli_main(["simulate", "--dist", "cauchy:0,1", "--n", "10",
                         "--trials", "1", "--out", str(out)])
        assert code == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
