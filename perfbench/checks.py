"""Output checks, run in the parent after the timed process has exited.

The golden check (pinned SHA-256 of seeded ``simulate`` CSVs and the
Table-1 band at seed 0) returns a list of problems; it depends only on the
source tree, so its verdict is cached per source digest in the checkout's
work directory.  The per-op checks sort the successful ops whose output is
not right into failed ops and wrong ones (see below).
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import replace
from math import ceil
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "golden.json"

# Paper values of the e.d.f. column for beta(2,2), as in acceptance criterion 8.
TABLE1_COL_B_BETA22 = {10: 0.24103, 50: 0.10241, 100: 0.07131, 500: 0.02917, 1000: 0.02506}
CSV_HEADER = ["dist", "n", "k", "trials", "iters", "mean_a", "mean_b", "ratio_pct"]

# Feasibility and optimality tolerance of an LP answer: HiGHS's default
# primal feasibility tolerance, and the D* agreement the oracle check asks for.
LP_TOL = 1e-7
# An LP answer that misses D(p*) or the HiGHS optimum by more than its
# tolerance but no more than this is rounding: the op failed.  A larger miss
# is a wrong answer, and the run is incorrect.
ROUNDING = 1e-6
REPLAYS = 4           # simulate ops recomputed through the library per run
COLLAGE_AUDITS = 12   # collage ops whose problem is rebuilt and fully checked per run


def source_digest(root: Path) -> str:
    """Digest of everything the golden verdict depends on: the package, the
    benchmark's own code and pinned hashes, and the numpy version."""
    h = hashlib.sha256(np.__version__.encode())
    files = [*(root / "src").rglob("*.py"), *HERE.rglob("*.py"), GOLDEN_FILE]
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def golden_args(dist: str, out: Path, exact: bool) -> list[str]:
    if exact:
        sizes, trials = "200,500", "2"
    else:
        sizes, trials = "10,50,100,500,1000", "30"
    argv = ["simulate", "--dist", dist, "--n", sizes, "--trials", trials, "--seed", "0",
            "--eval-points", "20", "--iters", "4", "--jobs", "1", "--out", str(out)]
    return argv + ["--exact-sup"] if exact else argv


def golden_hashes(work: Path) -> dict[str, str]:
    """SHA-256 of every pinned seed-0 ``simulate`` CSV, computed now."""
    from ifsdist.cli import cli_main

    from workloads import TABLE1_DISTS

    hashes = {}
    for exact in (False, True):
        for dist in TABLE1_DISTS:
            key = f"{'exact_sup' if exact else 'table1'}:{dist}"
            out = work / (key.replace(":", "_").replace(",", "_") + ".csv")
            code = cli_main(golden_args(dist, out, exact))
            hashes[key] = hashlib.sha256(out.read_bytes()).hexdigest() if code == 0 else f"exit {code}"
    return hashes


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: bad header {rows[:1]}")
    return [dict(zip(CSV_HEADER, r)) for r in rows[1:]]


def table1_band(work: Path) -> list[str]:
    """Acceptance criterion 8 on the seed-0 Table-1 CSVs left by golden_hashes."""
    from workloads import TABLE1_DISTS

    problems = []
    for dist in TABLE1_DISTS:
        for row in _read_rows(work / f"table1_{dist.replace(':', '_').replace(',', '_')}.csv"):
            n, ratio, mean_b = int(row["n"]), float(row["ratio_pct"]), float(row["mean_b"])
            if not 70.0 <= ratio <= 110.0:
                problems.append(f"Table-1 band: {dist} n={n} ratio {ratio}% outside [70,110]")
            if dist == "beta:2,2" and abs(mean_b - TABLE1_COL_B_BETA22[n]) > 0.25 * TABLE1_COL_B_BETA22[n]:
                problems.append(f"Table-1 band: beta:2,2 n={n} mean_b {mean_b} far from paper")
    return problems


def golden(root: Path, work_root: Path) -> list[str]:
    """Pinned hashes and Table-1 band; cached per source digest."""
    cache = work_root / f"golden-{source_digest(root)}.json"
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))["problems"]
    work = work_root / f"golden-{source_digest(root)}.tmp"
    work.mkdir(parents=True, exist_ok=True)
    pinned = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    actual = golden_hashes(work)
    problems = [f"golden {key}: sha256 {actual.get(key)} != pinned {sha}"
                for key, sha in pinned.items() if actual.get(key) != sha]
    problems += table1_band(work)
    tmp = cache.with_suffix(".part")
    tmp.write_text(json.dumps({"problems": problems}), encoding="utf-8")
    tmp.replace(cache)
    for path in work.iterdir():
        path.unlink()
    work.rmdir()
    return problems


# ---------------------------------------------------------------------------
# per-op checks
#
# Each returns (failed, wrong): op id -> problem.  A failed op counts against
# the run's successful ops; a wrong one also makes the run incorrect.


def _ops_by_id(manifest: dict) -> dict[int, dict]:
    return dict(enumerate(manifest["inputs"]))


def _ok_ids(records) -> list[int]:
    return sorted({rec["id"] for rec in records if rec["error"] is None})


def check_simulate(manifest: dict, records) -> tuple[dict, dict]:
    """Parse every successful op's CSV and replay a few through the library."""
    from ifsdist import parse_distribution
    from ifsdist.sim import TrialConfig, run_trial

    ops = _ops_by_id(manifest)
    wrong, rows = {}, {}
    for op_id in _ok_ids(records):
        op = ops[op_id]
        try:
            (row,) = _read_rows(Path(op["out"]))
            n = op["n"]
            a, b, ratio = float(row["mean_a"]), float(row["mean_b"]), float(row["ratio_pct"])
            expect = [parse_distribution(op["dist"]).label(), str(n),
                      str(max(2, min(ceil(n / 2), n - 1))), "1", "4"]
            if [row[c] for c in CSV_HEADER[:5]] != expect:
                raise ValueError(f"row {row} does not match op {expect}")
            if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
                raise ValueError(f"distances out of (0,1]: {a}, {b}")
            if abs(ratio - 100.0 * a / b) > 1e-3 * ratio:
                raise ValueError(f"ratio_pct {ratio} != 100*{a}/{b}")
            rows[op_id] = row
        except (OSError, ValueError) as exc:
            wrong[op_id] = f"simulate output: {exc}"

    for op_id in random.Random(manifest["seed"]).sample(sorted(rows), min(REPLAYS, len(rows))):
        op, row = ops[op_id], rows[op_id]
        cfg = TrialConfig(distribution=parse_distribution(op["dist"]), n=op["n"], k="auto",
                          iters=4, eval_points=20, trials=1, seed=op["seed"],
                          exact_sup=op["exact_sup"])
        res = run_trial(cfg, 0)
        if (f"{res.d_estimator:.5g}", f"{res.d_edf:.5g}") != (row["mean_a"], row["mean_b"]):
            wrong[op_id] = f"replay: library gives {res}, CLI wrote {row}"
        elif op["exact_sup"]:
            coarse = run_trial(replace(cfg, exact_sup=False), 0)
            # the exact sup evaluates a superset of the 20 grid points
            if coarse.d_estimator > res.d_estimator or coarse.d_edf > res.d_edf:
                wrong[op_id] = f"exact sup {res} below the 20-point distance {coarse}"
    return {}, wrong


def _oracle_d_star(problem):
    """min_p max|A p + b| over the simplex by HiGHS, rows rebuilt from residuals."""
    from scipy.optimize import linprog

    k = problem.k
    b = problem.residuals(np.zeros(k))
    a = np.column_stack([problem.residuals(np.eye(k)[j]) - b for j in range(k)])
    m = len(b)
    ones = np.ones((m, 1))
    res = linprog(
        c=np.r_[np.zeros(k), 1.0],
        A_ub=np.block([[a, -ones], [-a, -ones]]),
        b_ub=np.r_[-b, b],
        A_eq=np.r_[np.ones(k), 0.0][None, :],
        b_eq=[problem.weight_sum],
        bounds=[(0, None)] * k + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)


def _off_simplex(p: np.ndarray, weight_sum: float) -> str | None:
    if p.min() < -LP_TOL or abs(p.sum() - weight_sum) > LP_TOL:
        return f"p* off the simplex: min {p.min()}, sum {p.sum()} vs {weight_sum}"
    return None


def check_solution(problem, p_star, d_star: float, oracle: bool) -> tuple[list, list]:
    """(misses, errors) of an LP answer.

    A miss is the solver failing: p* off the simplex, or D* off D(p*) or off
    the HiGHS optimum by no more than ROUNDING.  An error is a wrong answer:
    a larger miss, or a broken collage-theorem bound.
    """
    from ifsdist import (IfsSystem, apply, collage_distance, fixed_point,
                         sup_distance)

    p = np.asarray(p_star, float)
    if p.shape != (problem.k,):
        return [], [f"p* has shape {p.shape}, expected ({problem.k},)"]
    off = _off_simplex(p, problem.weight_sum)
    if off:
        return [off], []
    misses, errors = [], []

    def compare(what: str, want: float, tol: float) -> None:
        gap = abs(d_star - want)
        if gap > tol:
            (errors if gap > ROUNDING else misses).append(f"D* {d_star} != {what} {want}")

    compare("D(p*)", collage_distance(problem, p), 1e-9)
    if oracle:
        compare("HiGHS optimum", _oracle_d_star(problem), LP_TOL)
    c = float(p.max())
    if c < 1.0 - 1e-9:
        # LP round-off leaves sum(p*) a few ulps off; the system check allows 1e-12
        p_sys = np.clip(p, 0.0, None)
        system = IfsSystem(problem.maps, p_sys * (problem.weight_sum / p_sys.sum()),
                           problem.delta)
        d_true = d_star
        if problem.mode == "grid":  # grid rows give a lower bound on the sup
            d_true = max(d_star, sup_distance(apply(system, problem.target), problem.target,
                                              grid_size=4097))
        fp = fixed_point(system, tol=1e-9)
        measured = sup_distance(problem.target, fp.df, grid_size=1024)
        bound = d_true / (1.0 - c) + fp.error_bound + 1e-6
        if measured > bound:
            errors.append(f"collage bound: d(F, fixed point) {measured} > {bound}")
    return misses, errors


def _invert_problem(op: dict):
    from ifsdist import AffineMap, BetaDF, CollageProblem, parse_distribution

    cuts = np.linspace(0.0, 1.0, op["cells"] + 1)
    maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(op["cells"])]
    return CollageProblem(BetaDF(parse_distribution(op["target"])), maps,
                          np.zeros(op["cells"] - 1))


def _record(failed: dict, wrong: dict, op_id: int, misses: list, errors: list) -> None:
    if errors:
        wrong[op_id] = "; ".join(errors + misses)
    elif misses:
        failed[op_id] = "; ".join(misses)


def check_invert(manifest: dict, records, oracle: bool) -> tuple[dict, dict]:
    ops = _ops_by_id(manifest)
    failed, wrong = {}, {}
    for op_id in _ok_ids(records):
        op = ops[op_id]
        try:
            report = json.loads(Path(op["out"]).read_text(encoding="utf-8"))
            misses, errors = check_solution(_invert_problem(op), report["p_star"],
                                            float(report["D_star"]), oracle)
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            misses, errors = [], [f"invert output: {type(exc).__name__}: {exc}"]
        _record(failed, wrong, op_id, misses, errors)
    return failed, wrong


def check_collage(manifest: dict, records, oracle: bool) -> tuple[dict, dict]:
    """Every solution is checked for feasibility; a seeded few are rebuilt
    and checked against HiGHS and the collage bound."""
    from workloads import collage_maps, collage_problem

    ops = _ops_by_id(manifest)
    results = {rec["id"]: rec["result"] for rec in records if rec["error"] is None}
    failed, wrong = {}, {}
    for op_id, res in results.items():
        off = _off_simplex(np.asarray(res["p_star"], float), 1.0)
        if off:
            failed[op_id] = off
        elif not 0.0 <= res["d_star"] <= 1.0:
            wrong[op_id] = f"D* {res['d_star']} outside [0, 1]"
    feasible = sorted(set(results) - set(failed) - set(wrong))
    audit = random.Random(manifest["seed"]).sample(feasible, min(COLLAGE_AUDITS, len(feasible)))
    for op_id in audit:
        op = ops[op_id]
        misses, errors = check_solution(collage_problem(op, collage_maps(op)),
                                        results[op_id]["p_star"], results[op_id]["d_star"],
                                        oracle)
        _record(failed, wrong, op_id, misses, errors)
    return failed, wrong


def oracle_available() -> bool:
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return False
    return True


def check_ops(manifest: dict, records, oracle: bool) -> tuple[dict, dict]:
    """(failed, wrong): op id -> problem, for the successful ops whose output
    is not right."""
    workload = manifest["workload"]
    if workload in ("table1", "exact_sup"):
        return check_simulate(manifest, records)
    if workload == "invert_exact":
        return check_invert(manifest, records, oracle)
    return check_collage(manifest, records, oracle)
