"""Seeded simulation harness comparing the quantile-IFS estimator against
the e.d.f. in sup norm, with per-row aggregation over independent trials.

Measurement protocol per trial: draw n points from the target CDF, build
the k-quantile estimator system, iterate it s times from the uniform
start, and take the max absolute deviation from the target over
``eval_points`` equally spaced points on [0,1] -- the same points used for
the e.d.f. distance, so both distances share one evaluation of the target
there.  Randomness flows through per-trial substreams, so results do not
depend on scheduling order.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .constructions import quantile_estimator
from .distfn import UniformDF, _require_integer, edf_from_sample, sup_distance
from .ifs import iterate_exact
from .randstats import _FLOOR, _STEPS, BetaDF, BetaParams, SeededRng, derive_substream, sample_beta

__all__ = [
    "TrialConfig",
    "TrialResult",
    "TableRow",
    "SimulationTable",
    "run_trial",
    "run_table",
]

log = logging.getLogger(__name__)

CSV_HEADER = "dist,n,k,trials,iters,mean_a,mean_b,ratio_pct"


@dataclass(frozen=True)
class TrialConfig:
    """One simulation row: target, sample size, estimator and protocol knobs,
    checked once when built.  ``k_count`` is ``k`` resolved ("auto" is ceil(n/2)
    capped at n-1); ``dataclasses.replace`` resolves it again."""

    distribution: BetaParams
    n: int
    k: int | str = "auto"
    iters: int = 4
    eval_points: int = 20
    trials: int = 30
    seed: int = 0
    exact_sup: bool = False
    k_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n", "iters", "eval_points", "trials", "seed"):  # numpy ones made int
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        if self.k == "auto":
            k = max(2, min(ceil(self.n / 2), self.n - 1))
        else:
            k = _require_integer("k", self.k, "'auto' or an integer")
        if not 2 <= k < self.n:
            raise ValueError(f"need 2 <= k < n, got k={k}, n={self.n}")
        if self.iters < 1:
            raise ValueError("iteration count must be >= 1")
        if self.eval_points < 2:
            raise ValueError("eval_points must be >= 2")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        object.__setattr__(self, "k_count", k)


@dataclass(frozen=True)
class TrialResult:
    d_estimator: float
    d_edf: float
    ratio: float


def run_trial(config: TrialConfig, trial_index: int) -> TrialResult:
    """One seeded trial: sample, estimator, and both sup-norm distances."""
    target = BetaDF(config.distribution)
    rng = SeededRng(derive_substream(config.seed, trial_index))
    sample = sample_beta(config.distribution, config.n, rng)
    at_one = int(np.count_nonzero(sample == 1.0))
    if at_one:
        raise ValueError(
            f"{config.distribution.label()}: {at_one} of {config.n} variates in trial "
            f"{trial_index} rounded to 1.0, and the estimators need a sample strictly "
            "inside (0,1)")
    # quantiles below _FLOOR all end on that least midpoint; one is a valid
    # sample value, two or more are duplicates
    at_floor = int(np.count_nonzero(sample == _FLOOR))
    if at_floor > 1:
        raise ValueError(
            f"{config.distribution.label()}: {at_floor} of {config.n} variates in trial "
            f"{trial_index} equal 2^-{_STEPS + 1}, the least value that the {_STEPS}-step "
            "bisection returns, and the estimators need distinct sample values")
    system = quantile_estimator(sample, config.k_count)
    estimator = iterate_exact(system, UniformDF(), config.iters)
    edf = edf_from_sample(sample)
    if config.exact_sup:
        d_est = sup_distance(estimator, target, grid_size=config.eval_points)
        d_edf = sup_distance(edf, target, grid_size=config.eval_points)
    else:
        pts = np.linspace(0.0, 1.0, config.eval_points)
        f = target.eval_array(pts)
        d_est = float(np.max(np.abs(estimator.eval_array(pts) - f)))
        d_edf = float(np.max(np.abs(edf.eval_array(pts) - f)))
    ratio = d_est / d_edf if d_edf > 0.0 else float("nan")
    return TrialResult(d_est, d_edf, ratio)


@dataclass(frozen=True)
class TableRow:
    dist: str
    n: int
    k: int
    trials: int
    iters: int
    mean_a: float
    mean_b: float
    ratio_pct: float           # 100 * mean_a / mean_b, the headline aggregation
    mean_ratio_pct: float      # mean of per-trial ratios, logged alongside
    results: tuple = field(repr=False, default=())


@dataclass(frozen=True)
class SimulationTable:
    rows: tuple

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in self.rows:
            writer.writerow([
                r.dist, r.n, r.k, r.trials, r.iters,
                f"{r.mean_a:.5g}", f"{r.mean_b:.5g}", f"{r.ratio_pct:.5g}",
            ])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())


def _run_config(config: TrialConfig) -> TableRow:
    results = [run_trial(config, i) for i in range(config.trials)]
    mean_a = float(np.mean([r.d_estimator for r in results]))
    mean_b = float(np.mean([r.d_edf for r in results]))
    if mean_b == 0.0:
        raise ValueError(
            f"{config.distribution.label()} n={config.n}: the e.d.f. equals the target at all "
            f"{config.eval_points} evaluation points in every trial, so the ratio of means "
            "is undefined; use more evaluation points")
    ratio_pct = 100.0 * mean_a / mean_b
    mean_ratio_pct = 100.0 * float(np.mean([r.ratio for r in results]))
    row = TableRow(
        dist=config.distribution.label(),
        n=config.n,
        k=config.k_count,
        trials=config.trials,
        iters=config.iters,
        mean_a=mean_a,
        mean_b=mean_b,
        ratio_pct=ratio_pct,
        mean_ratio_pct=mean_ratio_pct,
        results=tuple(results),
    )
    log.info(
        "%s n=%d k=%d: mean_a=%.5f mean_b=%.5f ratio-of-means=%.2f%% mean-of-ratios=%.2f%%",
        row.dist, row.n, row.k, mean_a, mean_b, ratio_pct, mean_ratio_pct,
    )
    return row


def run_table(configs) -> SimulationTable:
    """Run each config's trials and aggregate arithmetic means per row.

    Trials run one after another: they hold the interpreter lock, so
    threads made the sweep slower.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("no configurations given")
    return SimulationTable(tuple(_run_config(cfg) for cfg in configs))
