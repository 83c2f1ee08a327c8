"""ifsdist benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 20

Run inside a checkout that holds ``src/ifsdist``.  One run:

1. writes the workload's seeded inputs to ``.bench_work/`` in the checkout;
2. times ``import ifsdist.cli`` in fresh interpreters (``setup_s``);
3. runs the inputs in one worker process (``worker.py``), in whole passes
   over all of them, for ``--seconds`` of wall time; with ``--trace 1`` the
   worker runs traced passes and then an untraced replay of as many passes
   on a second copy of the inputs;
4. checks the outputs here, outside the timed process;
5. prints a detail line (fingerprint, sample counts, check results) and,
   last,
   ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``):

- ``ops_per_s``: successful ops per second of the timed loop's wall time,
  which includes the time of the ops that failed;
- ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile of the time of
  the ops that returned (every run holds well over 100);
- ``setup_s``: median of 15 fresh-interpreter imports of ``ifsdist.cli``;
- ``peak_rss_mb``: peak RSS of the timed process.

An op fails on an exception or a non-zero exit; every op of an input fails
when its output check does (an LP answer off the simplex, or off the
optimum by no more than rounding).  ``correct`` is false when a pinned seed-0 output or
the Table-1 band changes, when a simulate output is wrong, or when an LP
answer is wrong beyond rounding (``checks.check_solution``).

Exit code 0 when ``correct``, 1 when not (after printing the result), 2
when the run could not be made at all (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one process, no extra threads
    return env


def percentile(samples, q: float) -> float | None:
    """q-quantile of ``samples``, or None unless ten or more samples lie beyond it."""
    if round(len(samples) * (1.0 - q), 9) < 10:
        return None
    return float(np.quantile(np.asarray(samples, float), q))


def measure_setup(env: dict) -> list[float]:
    """Seconds a fresh interpreter spends importing ifsdist.cli; one warm-up first."""
    code = ("import time; t = time.perf_counter(); import ifsdist.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return times[1:]


def fingerprint(oracle: bool) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    import checks

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "git_commit": commit,
            "src_digest": checks.source_digest(ROOT), "oracle": "ran" if oracle else "skipped"}


def run_worker(manifest: dict, run_dir: Path, seconds: float, trace: int, env: dict) -> dict:
    manifest_path = run_dir / "manifest.json"
    result_path = run_dir / "result.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    spans = WORK / f"spans-{manifest['workload']}-{manifest['seed']}.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest_path), str(result_path),
           "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result, detail)."""
    import checks
    import workloads

    env = _child_env()
    WORK.mkdir(exist_ok=True)
    golden_problems = checks.golden(ROOT, WORK)
    setup = measure_setup(env)
    oracle = checks.oracle_available()
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        manifest = workloads.make_manifest(workload, seed, run_dir / "timed")
        if trace:
            # the untraced replay writes its own copy of the outputs, so that
            # the traced pass's outputs are still there to be checked
            replay = workloads.make_manifest(workload, seed, run_dir / "replay")
            manifest["replay_inputs"] = replay["inputs"]
        out = run_worker(manifest, run_dir, seconds, trace, env)
        timed = out["traced"] if trace else out["untraced"]
        bad, wrong = checks.check_ops(manifest, timed["records"], oracle)
        if trace:
            # the replay's ops are not counted, but a wrong output is still wrong
            _, replay_wrong = checks.check_ops(replay, out["untraced"]["records"], oracle)
            wrong.update({f"replay {i}": msg for i, msg in replay_wrong.items()})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = timed["records"]
    # an op fails on an error, or when its input's output check failed
    failed = [r for r in records if r["error"] is not None or r["id"] in bad or r["id"] in wrong]
    returned = [r["s"] for r in records if r["error"] is None]
    p50, p90 = percentile(returned, 0.5), percentile(returned, 0.9)
    if p90 is None and not trace:
        raise RuntimeError(f"only {len(returned)} ops returned; the 90th percentile needs 100")
    problems = golden_problems + [f"op {i}: {msg}" for i, msg in sorted(wrong.items(), key=str)]
    errors: dict[str, int] = {}
    for r in failed:
        key = "output check" if r["error"] is None else r["error"].split(":")[0]
        errors[key] = errors.get(key, 0) + 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        values, units = out["layers"], _units(spec["per_layer"])
    else:
        values = {"ops_per_s": (len(records) - len(failed)) / timed["wall_s"],
                  "op_p50_ms": 1e3 * p50, "op_p90_ms": 1e3 * p90,
                  "setup_s": statistics.median(setup), "peak_rss_mb": out["peak_rss_mb"]}
        units = _units(spec["end_to_end"])
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": not problems, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    detail = {"workload": workload, "seed": seed, "trace": trace, "why": why,
              "inputs": len(manifest["inputs"]), "passes": timed["passes"],
              "samples": len(returned), "failures": errors,
              "wall_s": timed["wall_s"],
              "threads": timed["threads"], "setup_samples_s": setup,
              "problems": problems[:20],
              "failed_output_checks": [f"op {i}: {msg}" for i, msg in sorted(bad.items())][:20],
              "fingerprint": fingerprint(oracle)}
    return result, detail


def _units(metrics) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ifsdist" / "__init__.py").is_file():
        print(f"error: no ifsdist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.all else (args.workload,)
    all_correct = True
    for name in names:
        try:
            result, detail = run_one(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        all_correct &= result["correct"]
        if args.all:
            for metric, m in result["metrics"].items():
                print(f"{name:14s} {metric:28s} {m['value']:14.6g} {m['unit']}")
            print(f"{name:14s} {'attempted/failed':28s} {result['attempted']:>8d} / "
                  f"{result['failed']} correct={result['correct']}")
        print(json.dumps({"detail": detail}))
        if not args.all:
            print(json.dumps(result))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
