"""The timed process of one benchmark run.

Usage: python3 worker.py MANIFEST RESULT --seconds S --trace 0|1

Runs every input of the manifest in turn (one pass) and repeats whole
passes until S seconds of wall time have passed and at least MIN_OPS ops
have run, then writes one record per op to RESULT.  Every
exception of an op is caught and recorded.  With --trace 1 the passes of
the first half of S run with the layer wrappers installed, the wrappers are
removed, and the same number of passes runs again untraced, so the
difference of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

import ifsdist.cli as cli
import ifsdist.inverse as inverse

import tracing
import workloads

# The 90th percentile needs ten samples beyond it.
MIN_OPS = 100


class Runner:
    def __init__(self, manifest: dict):
        self.inputs = manifest["inputs"]
        # collage maps are inputs: built (and cached) before timing
        for op in self.inputs:
            if op["kind"] == "collage":
                workloads.collage_maps(op)
        self.tracer: tracing.Tracer | None = None

    def _call(self, op: dict):
        # module attribute lookups, so that the tracing wrappers apply
        if op["kind"] == "cli":
            code = cli.cli_main(op["argv"])
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return None
        sol = inverse.solve_inverse(workloads.collage_problem(op, workloads.collage_maps(op)))
        return {"p_star": [float(v) for v in sol.p_star], "d_star": float(sol.d_star)}

    def run_op(self, op: dict, tag: int) -> dict:
        tracer = self.tracer
        error, result = None, None
        if tracer is not None:
            tracer.op = tag
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self._call(op)
            else:
                result = tracer.call("bench.op", self._call, (op,), {})
        except Exception as exc:  # every failure of an op is recorded, never raised
            error = f"{type(exc).__name__}: {exc}"
        record = {"s": time.perf_counter() - start, "error": error}
        if result is not None:
            record["result"] = result
        if tracer is not None and op["kind"] == "cli" and error is None:
            record["bytes_out"] = os.path.getsize(op["out"])
        return record

    def loop(self, seconds: float, passes: int | None = None) -> dict:
        """Run whole passes over the inputs until ``seconds`` of wall time
        have passed (and MIN_OPS ops have run), or exactly ``passes`` passes.

        A record's ``id`` is its input's index; spans are tagged with the
        record's position.
        """
        records = []
        wall0 = time.perf_counter()
        done = 0
        while True:
            for i, op in enumerate(self.inputs):
                rec = self.run_op(op, len(records))
                rec["id"] = i
                records.append(rec)
            done += 1
            if passes is not None:
                if done >= passes:
                    break
            elif len(records) >= MIN_OPS and time.perf_counter() - wall0 >= seconds:
                break
        return {"records": records, "passes": done, "wall_s": time.perf_counter() - wall0,
                "threads": len(os.listdir("/proc/self/task"))}


def peak_rss_mb() -> float:
    """Peak RSS of this process since it was exec'd.

    Linux's ru_maxrss also counts the parent's RSS at fork time, which the
    parent's checks and golden runs inflate; VmHWM does not.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    runner = Runner(manifest)
    runner.run_op(manifest["inputs"][0], -1)  # warm-up: lazy imports, first-call costs

    out: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        originals = tracing.snapshot()
        runner.tracer = tracer
        with tracing.traced(tracer):
            traced_pass = runner.loop(args.seconds / 2)
        runner.tracer = None
        if any(a is not b for a, b in zip(originals, tracing.snapshot())):
            raise RuntimeError("tracing wrappers were not removed")
        recs = traced_pass["records"]
        ok = {tag for tag, r in enumerate(recs) if r["error"] is None}
        layers = tracing.layer_metrics(tracer.spans, ok, len(recs))
        layers["cli.bytes_out"] = sum(r.get("bytes_out", 0) for r in recs) / max(len(ok), 1)
        layers["trace.spans"] = len(tracer.spans) / len(recs)
        if args.spans:
            tracer.write(args.spans)
        del tracer  # a heap full of spans would slow the untraced replay
        gc.collect()
        runner.inputs = manifest["replay_inputs"]  # the same inputs, other output paths
        untraced = runner.loop(args.seconds, passes=traced_pass["passes"])
        layers["trace.op_ms"] = 1e3 * traced_pass["wall_s"] / len(recs)
        layers["trace.untraced_op_ms"] = 1e3 * untraced["wall_s"] / len(recs)
        layers["trace.overhead_ms"] = 1e3 * (traced_pass["wall_s"] - untraced["wall_s"])
        layers["trace.overhead_pct"] = 100.0 * (traced_pass["wall_s"] / untraced["wall_s"] - 1.0)
        out.update(traced=traced_pass, untraced=untraced, layers=layers)
    else:
        out["untraced"] = runner.loop(args.seconds)
    out["peak_rss_mb"] = peak_rss_mb()
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
