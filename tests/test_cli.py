import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ifsdist
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
from ifsdist import cli
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

    @pytest.mark.parametrize("form", [["--config=CFG"], ["--conf", "CFG"],
                                      ["--trials", "2", "--seed", "5"]],
                             ids=["equals", "prefix", "flags"])
    def test_config_file_in_every_form(self, form, tmp_path):
        # --config=FILE was once read as no config at all, and ran 30 trials
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=2\nseed=5\n")
        args = ["simulate", "--dist", "beta:2,2", "--n", "10"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(out1), "--config", str(cfg)]) == 0
        assert cli_main(args + ["--out", str(out2)]
                        + [token.replace("CFG", str(cfg)) for token in form]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[1].startswith('"beta:2,2",10,5,2,')  # 2 trials

    def test_last_config_file_wins(self, tmp_path):
        first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
        first.write_text("trials=3\n")
        last.write_text("trials=2\n")
        args = ["simulate", "--dist", "beta:2,2", "--n", "10", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--config", str(first), f"--config={last}",
                                "--out", str(out1)]) == 0
        assert cli_main(args + ["--trials", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("value,flags", [("true", ["--exact-sup"]), ("false", [])])
    def test_config_switches(self, value, flags, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"exact_sup={value}\n")
        args = ["simulate", "--dist", "beta:2,5", "--n", "10", "--trials", "2", "--seed", "1"]
        outs = [tmp_path / name for name in ("cfg.csv", "flags.csv", "other.csv")]
        assert cli_main(args + ["--config", str(cfg), "--out", str(outs[0])]) == 0
        assert cli_main(args + flags + ["--out", str(outs[1])]) == 0
        other = [] if flags else ["--exact-sup"]
        assert cli_main(args + other + ["--out", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\ntrials 2\n")
        out = tmp_path / "a.csv"
        assert cli_main(["simulate", "--dist", "beta:2,2", "--n", "10",
                         f"--config={cfg}", "--out", str(out)]) == 1
        assert f"error: {cfg}:3: expected key=value, got 'trials 2'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [
        (["simulate", "--dist", "beta:2,2", "--n", "10"], "trails"),
        (["simulate", "--dist", "beta:2,2", "--n", "10"], "points"),
        (["approximate", "--dist", "beta:2,2", "--points", "4"], "trials"),
        (["simulate", "--dist", "beta:2,2", "--n", "10"], "e"),
    ], ids=["misspelt", "other-command", "approximate", "ambiguous"])
    def test_unknown_config_key_names_the_file(self, command, key, tmp_path, capsys):
        # the key used to reach argparse as a flag: "unrecognized arguments:
        # --trails 2" or "ambiguous option: --e" and a usage, with no word of
        # the file
        cfg = tmp_path / "bad.txt"
        cfg.write_text(f"iters=3\n{key}=2\n")
        out = tmp_path / "a.csv"
        assert cli_main(command + ["--out", str(out), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:2: key {key!r} names no single flag of {command[0]}\n"
        assert not out.exists()

    def test_config_keys_may_abbreviate_a_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trial=2\nseed=5\n")
        args = ["simulate", "--dist", "beta:2,2", "--n", "10"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main(args + ["--trials", "2", "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_config_no_extra_parse(self, tmp_path, monkeypatch):
        # the full parse runs the subcommand parsers, never this parent itself
        monkeypatch.setattr(cli._config_parser(), "parse_known_args",
                            lambda *args: pytest.fail("config parse"))
        out = tmp_path / "a.csv"
        assert cli_main(["simulate", "--dist", "beta:2,2", "--n", "10", "--trials", "1",
                         "--out", str(out)]) == 0

    def test_config_without_a_path(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert cli_main(["simulate", "--dist", "beta:2,2", "--n", "10",
                         "--out", str(out), "--config"]) == 1
        assert "argument --config: expected one argument" in capsys.readouterr().err

    def test_variates_rounded_to_one_are_named(self, tmp_path, capsys):
        # Beta(0.1,0.1) at seed 0 draws a quantile above 1 - 2^-54 in trial 0,
        # which the bisection returns as exactly 1.0
        out = tmp_path / "sim.csv"
        assert cli_main(["simulate", "--dist", "beta:0.1,0.1", "--n", "100",
                         "--seed", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "beta:0.1,0.1: 1 of 100 variates in trial 0 rounded to 1.0" in err
        assert not out.exists()

    def test_variates_at_the_bisection_floor_are_named(self, tmp_path, capsys):
        # Beta(0.05,2) at seed 0 draws 9 quantiles below 2^-61 in trial 0,
        # which the bisection all returns as its least midpoint 2^-61
        out = tmp_path / "sim.csv"
        assert cli_main(["simulate", "--dist", "beta:0.05,2", "--n", "100",
                         "--seed", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "beta:0.05,2: 9 of 100 variates in trial 0 equal 2^-61" in err
        assert not out.exists()

    @pytest.mark.parametrize("points,seed", [(3, 3), (2, 0)])
    def test_edf_distance_of_zero_is_rejected(self, points, seed, tmp_path, capsys):
        # the e.d.f. equals F at 0 and 1, and at seed 3 also at 0.5, so the
        # ratio of means has a zero denominator
        out = tmp_path / "sim.csv"
        assert cli_main(["simulate", "--dist", "beta:2,2", "--n", "10", "--trials", "1",
                         "--eval-points", str(points), "--seed", str(seed),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"beta:2,2 n=10: the e.d.f. equals the target at all {points} evaluation "
                "points") in err
        assert not out.exists()


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

    def test_nan_in_csv_target_is_named(self, tmp_path, capsys):
        fn = tmp_path / "target.csv"
        fn.write_text("x,value\n0,0\n0.4,nan\n1,1\n")
        out = tmp_path / "report.json"
        code = cli_main(["invert", "--target", str(fn), "--partition", "auto:2",
                         "--out", str(out)])
        assert code == 1
        assert "values must be finite, found nan" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_in_csv_target(self, tmp_path):
        # -0 in a step target used to reach the chain solver as w = -0.0,
        # whose reciprocal -inf rejected every t
        fn = tmp_path / "target.csv"
        fn.write_text("x,value\n0,0\n0.4,-0\n1,1\n")
        out = tmp_path / "report.json"
        code = cli_main(["invert", "--target", str(fn), "--target-mode", "step",
                         "--partition", "auto:2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["D_star"] >= 0.0

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


class TestValidSystemsPassValidation:
    # maps whose targets are a few 1e-5 wide used to fail a round-trip check
    # on inverse(forward(x)) in source units at an absolute 1e-12

    def test_simulate_uniform_large_n(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli_main(["simulate", "--dist", "uniform", "--n", "10000", "--seed", "0",
                         "--trials", "8", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_estimate_with_close_sample_points(self, tmp_path):
        sample = tmp_path / "s.txt"
        sample.write_text("0.1\n0.3\n0.5\n0.500001\n0.7\n0.9\n")
        out = tmp_path / "est.csv"
        assert cli_main(["estimate", "--sample", str(sample), "--k", "5",
                         "--out", str(out)]) == 0


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

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--dist", "beta:2,2", "--n", ",", "--trials", "1"],
         "--n needs at least one sample size"),
        (["invert", "--target", "beta:2,2", "--partition", "auto:0"],
         "auto partition needs at least one cell"),
    ], ids=["simulate-no-size", "invert-no-cell"])
    def test_empty_size_list_and_partition(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert cli_main(argv + ["--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,env,message", [
        (["simulate", "--dist", "beta:2,2", "--n", "10,x", "--trials", "1"], None,
         "--n: not an integer: 'x'"),
        (["simulate", "--dist", "beta:2,2", "--n", "10", "--trials", "1", "--seed", "x"], None,
         "--seed: not an integer: 'x'"),
        (["simulate", "--dist", "beta:2,2", "--n", "10", "--trials", "1"], "x",
         "IFS_SEED: not an integer: 'x'"),
        (["invert", "--target", "beta:2,2", "--partition", "auto:x"], None,
         "--partition auto: not an integer: 'x'"),
    ], ids=["n", "seed", "env-seed", "partition"])
    def test_bad_integer_names_its_flag(self, argv, env, message, tmp_path, monkeypatch,
                                        capsys):
        if env is not None:
            monkeypatch.setenv("IFS_SEED", env)
        out = tmp_path / "x.out"
        assert cli_main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_number_in_csv_target_names_its_line(self, tmp_path, capsys):
        fn = tmp_path / "bad.csv"
        fn.write_text("x,value\n0,0\nabc,0.5\n1,1\n")
        out = tmp_path / "report.json"
        assert cli_main(["invert", "--target", str(fn), "--partition", "auto:2",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {fn}:3: not a number: 'abc'\n"
        assert not out.exists()

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 745. GiB"), "error: Unable to allocate 745. GiB"),
        (MemoryError(), "error: out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory(self, exc, message, tmp_path, monkeypatch, capsys):
        def run_table(configs):
            raise exc

        monkeypatch.setattr(cli, "run_table", run_table)
        out = tmp_path / "x.csv"
        assert cli_main(["simulate", "--dist", "beta:2,2", "--n", "10", "--trials", "1",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == message + "\n"
        assert not out.exists()

    def test_bad_distribution_spec(self, tmp_path):
        out = tmp_path / "x.csv"
        code = cli_main(["simulate", "--dist", "cauchy:0,1", "--n", "10",
                         "--trials", "1", "--out", str(out)])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dist", "beta:inf,2", "--n", "10", "--trials", "1"],
        ["approximate", "--dist", "beta:inf,2", "--points", "4"],
        ["invert", "--target", "beta:inf,2", "--partition", "auto:4"],
        ["invert", "--target", "beta:0,2", "--partition", "auto:4"],
    ], ids=["simulate-inf", "approximate-inf", "invert-inf", "invert-zero"])
    def test_undefined_beta_shapes(self, argv, tmp_path, capsys):
        # rejected when parsed, before any numpy arithmetic could warn (the
        # suite turns warnings into errors), and never read as a CSV path
        out = tmp_path / "x.out"
        assert cli_main(argv + ["--out", str(out)]) == 1
        assert "Beta parameters must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0


def test_package_exports_the_modules_public_names():
    modules = (ifsdist.constructions, ifsdist.distfn, ifsdist.ifs, ifsdist.inverse,
               ifsdist.randstats, ifsdist.sim)
    names = {"__version__"}.union(*(module.__all__ for module in modules))
    assert len(ifsdist.__all__) == len(names)
    assert set(ifsdist.__all__) == names
    for module in modules:
        for name in module.__all__:
            assert getattr(ifsdist, name) is getattr(module, name)


def test_subcommands_import_no_test_oracle(sample_file, tmp_path):
    # scipy, mpmath and hypothesis check the package in tests only; a fresh
    # interpreter that runs every subcommand must never have imported them
    path, _ = sample_file
    runs = [
        ["approximate", "--dist", "beta:2,2", "--points", "3", "--out", "a.csv"],
        ["edf-ifs", "--sample", str(path), "--out", "e.json"],
        ["invert", "--target", f"edf:{path}", "--partition", "auto:5", "--out", "i.json"],
        ["estimate", "--sample", str(path), "--k", "4", "--out", "q.csv"],
        ["simulate", "--dist", "beta:2,5", "--n", "10", "--trials", "2", "--exact-sup",
         "--out", "s.csv"],
    ]
    script = ("import json, sys\n"
              "from ifsdist.cli import cli_main\n"
              "codes = [cli_main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(m.split('.')[0] for m in sys.modules)]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ifsdist.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    codes, modules = json.loads(done.stdout)
    assert codes == [0] * len(runs)
    assert not {"scipy", "mpmath", "hypothesis"} & set(modules)
