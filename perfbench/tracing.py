"""Span tracing for the traced benchmark run.

Spans come from wrappers that this file installs around the public entry
points each layer's callers use (``ifsdist.sim.sample_beta``,
``BetaDF.eval``, ``solve_inverse`` ...); nothing inside the package is
edited.  Spans stay in memory, are written out when the run ends, and every
patched attribute is put back before any untraced pass.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: int              # perf_counter_ns
    end: int                # 0 while open
    parent: int | None
    op: int | None
    work: int = 0           # points, variates, rows ... counted at the boundary
    error: str | None = None


class Tracer:
    """In-memory span recorder; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: int | None = None

    def call(self, name, fn, args, kwargs, work=None):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
        if work is not None:
            span.work = int(work(args, result))
        return result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end)
        for s in spans
    }


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _targets():
    """(owner, attribute, span name, work counter) for every traced entry point.

    Each entry point is wrapped where its callers look it up: module-level
    names in the namespace that imported them, methods on their class.
    """
    import ifsdist.cli as cli
    import ifsdist.inverse as inverse
    import ifsdist.sim as sim
    from ifsdist.ifs import IfsSystem, IteratedDF
    from ifsdist.randstats import BetaDF

    return [
        (cli, "cli_main", "cli.main", None),
        (cli, "run_table", "sim.run_table", None),
        (sim, "run_trial", "sim.run_trial", None),
        (sim, "sample_beta", "randstats.sample_beta", lambda a, r: _size(r)),
        (BetaDF, "eval", "randstats.cdf", lambda a, r: 1),
        (BetaDF, "eval_array", "randstats.cdf", lambda a, r: _size(r)),
        (sim, "quantile_estimator", "constructions.estimator", lambda a, r: r.k),
        (IteratedDF, "eval_array", "ifs.eval", lambda a, r: _size(r)),
        (IteratedDF, "eval_left_array", "ifs.eval", lambda a, r: _size(r)),
        (IteratedDF, "breakpoints", "ifs.breakpoints", lambda a, r: _size(r)),
        (IfsSystem, "require_valid", "ifs.validate", None),
        (sim, "sup_distance", "distfn.sup", None),
        (sim, "edf_from_sample", "distfn.edf", None),
        (cli, "edf_from_sample", "distfn.edf", None),
        (inverse.CollageProblem, "__init__", "inverse.assemble",
         lambda a, r: len(a[0].eval_spots)),
        (cli, "solve_inverse", "inverse.solve", lambda a, r: r.iterations),
        (inverse, "solve_inverse", "inverse.solve", lambda a, r: r.iterations),
    ]


def snapshot() -> list:
    """The objects currently bound at every traced entry point."""
    return [getattr(owner, attr) for owner, attr, _, _ in _targets()]


@contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    saved = []  # (owner, attribute, original), in installation order
    try:
        for owner, attr, name, work in _targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]  # only methods the class itself defines
            else:
                original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, work))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrapper(tracer: Tracer, name: str, original, work):
    @functools.wraps(original)
    def traced_call(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, work)

    return traced_call


def layer_metrics(spans, ok_ops: set, attempted: int) -> dict[str, float]:
    """Per-op layer figures from a traced pass.

    Times and counts are averaged over the successful ops (``ok_ops`` holds
    their op tags); the solve failure figures are over all ``attempted`` ops.
    Times are self times in ms per op, except ``inverse.assemble_ms``: it is
    the whole ``CollageProblem`` construction that callers wait for,
    including the ``randstats.cdf`` calls it makes.
    """
    selfs = self_times(spans)
    ms = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    widest_child = defaultdict(int)
    solves = solve_failures = 0
    assemble_ns = 0
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.name == "inverse.solve":
            solves += 1
            solve_failures += s.error is not None
        if s.op not in ok_ops:
            continue
        ms[s.name] += selfs[s.sid]
        calls[s.name] += 1
        work[s.name] += s.work
        if s.name == "inverse.assemble":
            assemble_ns += s.end - s.start
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "distfn.sup":
            widest_child[s.parent] = max(widest_child[s.parent], s.work)

    def per_op(value: float) -> float:
        return value / len(ok_ops) if ok_ops else 0.0

    def t(*names: str) -> float:
        return per_op(sum(ms[n] for n in names) / 1e6)

    return {
        "randstats.sample_beta_ms": t("randstats.sample_beta"),
        "randstats.variates": per_op(work["randstats.sample_beta"]),
        "randstats.cdf_ms": t("randstats.cdf"),
        "randstats.cdf_calls": per_op(calls["randstats.cdf"]),
        "randstats.cdf_points": per_op(work["randstats.cdf"]),
        "constructions.estimator_ms": t("constructions.estimator"),
        "constructions.cells": per_op(work["constructions.estimator"]),
        "ifs.breakpoints_ms": t("ifs.breakpoints"),
        "ifs.breakpoints": per_op(work["ifs.breakpoints"]),
        "ifs.eval_ms": t("ifs.eval"),
        "ifs.eval_points": per_op(work["ifs.eval"]),
        "ifs.validate_ms": t("ifs.validate"),
        "distfn.sup_ms": t("distfn.sup"),
        "distfn.sup_points": per_op(sum(widest_child.values())),
        "distfn.edf_ms": t("distfn.edf"),
        "inverse.assemble_ms": per_op(assemble_ns / 1e6),
        "inverse.rows": per_op(work["inverse.assemble"]),
        "inverse.solve_ms": t("inverse.solve"),
        "inverse.pivots": per_op(work["inverse.solve"]),
        "inverse.lp_failures": solve_failures / attempted if attempted else 0.0,
        "inverse.solve_ok_ratio": (solves - solve_failures) / solves if solves else 0.0,
        "sim.self_ms": t("sim.run_table", "sim.run_trial"),
        "sim.trials": per_op(calls["sim.run_trial"]),
        "cli.self_ms": t("cli.main"),
        "bench.self_ms": t("bench.op"),
    }
