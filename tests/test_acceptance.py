"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from ifsdist import (
    AffineMap,
    BetaDF,
    BetaParams,
    CollageProblem,
    IfsSystem,
    UniformDF,
    apply,
    beta_cdf,
    beta_quantile,
    collage_distance,
    contractivity,
    edf_from_sample,
    edf_ifs,
    fixed_point,
    iterate_exact,
    perturbation_bound,
    quantile_ifs,
    solve_inverse,
    sup_distance,
)
from ifsdist.cli import cli_main
from ifsdist.sim import TrialConfig, run_table

from conftest import (
    convexity_witness,
    random_contractive_system,
    random_cuts,
    random_identity_system,
    random_step_df,
)

TABLE1_DISTS = [(2, 2), (3, 3), (5, 3), (3, 5), (1, 1)]
TABLE1_N = [10, 50, 100, 500, 1000]
TABLE1_COL_B_BETA22 = {10: 0.24103, 50: 0.10241, 100: 0.07131, 500: 0.02917, 1000: 0.02506}

# closed-form CDFs, symbolically integrated densities (independent oracle)
CLOSED_FORMS = {
    (1, 1): lambda x: x,
    (2, 2): lambda x: 3 * x**2 - 2 * x**3,
    (3, 3): lambda x: 10 * x**3 - 15 * x**4 + 6 * x**5,
    (5, 3): lambda x: 21 * x**5 - 35 * x**6 + 15 * x**7,
    (3, 5): lambda x: 35 * x**3 - 105 * x**4 + 126 * x**5 - 70 * x**6 + 15 * x**7,
}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_edf_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 101))
        sample = np.unique(rng.uniform(0.005, 0.995, size=n))
        while len(sample) < n:
            sample = np.unique(rng.uniform(0.005, 0.995, size=n))
        result = fixed_point(edf_ifs(sample), tol=1e-11)
        d = sup_distance(result.df, edf_from_sample(sample))
        worst = max(worst, d)
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, "e.d.f. exactness", ok, f"max d = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_contraction():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst_margin = -np.inf
    for i in range(200):
        if i % 3 == 0:
            system = random_contractive_system(rng)
        else:
            system = random_identity_system(rng, negative_delta=(i % 3 == 1))
        c = contractivity(system)
        f, g = random_step_df(rng), random_step_df(rng)
        lhs = sup_distance(apply(system, f), apply(system, g))
        rhs = c * sup_distance(f, g) + 1e-12
        worst_margin = max(worst_margin, lhs - rhs)
    elapsed = time.time() - t0
    ok = worst_margin <= 0.0 and elapsed < 10.0
    _report(2, "contraction theorem", ok,
            f"worst lhs-rhs = {worst_margin:.3e}, {elapsed:.1f}s")


def test_criterion_03_collage_bound():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    worst_margin = -np.inf
    count = 0
    while count < 50:
        a, b = TABLE1_DISTS[count % len(TABLE1_DISTS)]
        target = BetaDF(BetaParams(a, b))
        cuts = random_cuts(rng, int(rng.integers(3, 9)))
        maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
        problem = CollageProblem(target, maps, np.zeros(len(maps) - 1))
        sol = solve_inverse(problem)
        c = float(np.max(sol.p_star))
        assert c < 1.0, "solver output must stay contractive for this family"
        system = IfsSystem(maps, sol.p_star, problem.delta)
        result = fixed_point(system, tol=1e-9)
        measured = sup_distance(target, result.df, grid_size=1024)
        bound = sol.d_star / (1.0 - c) + 1e-6
        worst_margin = max(worst_margin, measured - bound)
        count += 1
    elapsed = time.time() - t0
    ok = worst_margin <= 0.0 and elapsed < 60.0
    _report(3, "collage theorem", ok,
            f"worst measured-bound = {worst_margin:.3e}, {elapsed:.1f}s")


def test_criterion_04_convexity():
    rng = np.random.default_rng(1004)
    worst = -np.inf
    tuples = 0
    for _ in range(25):
        k = int(rng.integers(2, 7))
        a, b = TABLE1_DISTS[int(rng.integers(0, 5))]
        cuts = random_cuts(rng, k)
        maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(k)]
        problem = CollageProblem(BetaDF(BetaParams(a, b)), maps, np.zeros(k - 1))
        for _ in range(40):
            p1 = rng.normal(scale=2.0, size=k)
            p2 = rng.normal(scale=2.0, size=k)
            lam = rng.uniform(0.0, 1.0)
            lhs, rhs = convexity_witness(problem, p1, p2, lam)
            worst = max(worst, lhs - rhs - 1e-10)
            tuples += 1
    ok = worst <= 0.0 and tuples == 1000
    _report(4, "convexity of D", ok, f"{tuples} tuples, worst excess = {worst:.3e}")


def test_criterion_05_perturbation():
    rng = np.random.default_rng(1005)
    worst_margin = -np.inf
    count = 0
    while count < 100:
        base = random_identity_system(rng, negative_delta=(count % 2 == 0), c_max=0.9)
        total = float(np.sum(base.p))
        raw = rng.random(base.k) + 0.05
        p2 = raw / raw.sum() * total
        other = IfsSystem(base.maps, p2, base.delta)
        if other.violations() or np.max(p2) >= 0.9:
            continue
        c = contractivity(base)
        bound = perturbation_bound(base.p, p2, c) + 1e-6
        fp1 = fixed_point(base, tol=1e-9)
        fp2 = fixed_point(other, tol=1e-9)
        measured = sup_distance(fp1.df, fp2.df)
        worst_margin = max(worst_margin, measured - bound)
        count += 1
    ok = worst_margin <= 0.0
    _report(5, "perturbation theorem", ok, f"worst measured-bound = {worst_margin:.3e}")


def test_criterion_06_worked_example():
    worst_p = 0.0
    worst_d = 0.0
    worst_oracle = 0.0
    grid = np.linspace(0.0, 1.0, 1_000_001)
    for x1 in [round(0.1 * i, 1) for i in range(1, 10)]:
        maps = [AffineMap.identity(0.0, x1), AffineMap.identity(x1, 1.0)]
        sol = solve_inverse(CollageProblem(UniformDF(), maps, [0.0]))
        # independent 1-d grid search on the closed-form objective
        oracle = float(np.min(np.maximum(x1 * (1.0 - grid), grid * (1.0 - x1))))
        worst_p = max(worst_p, abs(sol.p_star[0] - x1))
        worst_d = max(worst_d, abs(sol.d_star - x1 * (1.0 - x1)))
        worst_oracle = max(worst_oracle, abs(oracle - x1 * (1.0 - x1)))
    ok = worst_p <= 1e-6 and worst_d <= 1e-8 and worst_oracle <= 1e-6
    _report(6, "worked one-point example", ok,
            f"max |p1-x1| = {worst_p:.2e}, max |D*-x1(1-x1)| = {worst_d:.2e}, "
            f"oracle gap = {worst_oracle:.2e}")


def test_criterion_07_beta_numerics():
    xs = np.linspace(0.0, 1.0, 1000)
    worst_cdf = 0.0
    for ab, poly in CLOSED_FORMS.items():
        got = BetaDF(BetaParams(*ab)).eval_array(xs)
        worst_cdf = max(worst_cdf, float(np.max(np.abs(got - poly(xs)))))
    rng = np.random.default_rng(1007)
    worst_rt = 0.0
    for ab in CLOSED_FORMS:
        params = BetaParams(*ab)
        for u in rng.uniform(0.001, 0.999, size=40):
            worst_rt = max(worst_rt, abs(beta_cdf(params, beta_quantile(params, u)) - u))
    ok = worst_cdf <= 1e-10 and worst_rt <= 1e-9
    _report(7, "beta numerics", ok,
            f"max cdf err = {worst_cdf:.2e}, max round trip = {worst_rt:.2e}")


def test_criterion_08_table1_reproduction():
    t0 = time.time()
    failures = []
    ratio_lo, ratio_hi = np.inf, -np.inf
    for a, b in TABLE1_DISTS:
        configs = [
            TrialConfig(distribution=BetaParams(a, b), n=n, k="auto",
                        iters=4, eval_points=20, trials=30, seed=0)
            for n in TABLE1_N
        ]
        table = run_table(configs)
        for row in table.rows:
            if (a, b) == (2, 2):
                ref = TABLE1_COL_B_BETA22[row.n]
                if abs(row.mean_b - ref) / ref > 0.25:
                    failures.append(f"(2,2) n={row.n}: mean_b {row.mean_b:.5f} vs {ref}")
            if not 70.0 <= row.ratio_pct <= 110.0:
                failures.append(f"({a},{b}) n={row.n}: ratio {row.ratio_pct:.2f}%")
            ratio_lo = min(ratio_lo, row.ratio_pct)
            ratio_hi = max(ratio_hi, row.ratio_pct)
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    _report(8, "Table 1 reproduction", ok,
            f"ratios in [{ratio_lo:.1f}%, {ratio_hi:.1f}%], {elapsed:.0f}s"
            + ("" if not failures else "; " + "; ".join(failures)))


def test_criterion_09_quantile_interpolation():
    worst_interp = 0.0
    monotone = True
    pts = np.linspace(0.0, 1.0, 20)
    detail = []
    for a, b in TABLE1_DISTS:
        target = BetaDF(BetaParams(a, b))
        dists = []
        for m in (3, 9, 19):
            system = quantile_ifs(target, m)
            nodes = np.array([mp.c for mp in system.maps[1:]])
            levels = np.arange(1, m + 1) / (m + 1)
            for s in (1, 2, 3, 4):
                it = iterate_exact(system, UniformDF(), s)
                gap = float(np.max(np.abs(it.eval_array(nodes) - levels)))
                worst_interp = max(worst_interp, gap)
            four = iterate_exact(system, UniformDF(), 4)
            dists.append(float(np.max(np.abs(four.eval_array(pts) - target.eval_array(pts)))))
        if not (dists[0] >= dists[1] - 1e-12 and dists[1] >= dists[2] - 1e-12):
            monotone = False
            detail.append(f"({a},{b}): {dists}")
    ok = worst_interp <= 1e-9 and monotone
    _report(9, "quantile interpolation", ok,
            f"max node gap = {worst_interp:.2e}, monotone = {monotone}"
            + ("" if monotone else "; " + "; ".join(detail)))


def test_criterion_10_determinism(tmp_path):
    args = ["simulate", "--dist", "beta:2,2", "--n", "10,50,100,500,1000",
            "--trials", "30", "--seed", "0", "--eval-points", "20", "--iters", "4"]
    out1 = tmp_path / "sweep_serial.csv"
    out2 = tmp_path / "sweep_parallel.csv"
    code1 = cli_main(args + ["--jobs", "1", "--out", str(out1)])
    code2 = cli_main(args + ["--jobs", "4", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    _report(10, "simulate determinism", ok,
            f"exit codes ({code1},{code2}), byte-identical = {identical}")
