"""Seeded simulation harness comparing the quantile-IFS estimator against
the e.d.f. in sup norm, with per-row aggregation over independent trials.

Measurement protocol per trial: draw n points from the target CDF, build
the k-quantile estimator system, iterate it s times from the uniform
start, and take the max absolute deviation from the target over
``eval_points`` equally spaced points on [0,1] -- the same points used for
the e.d.f. distance.  Randomness flows through per-trial substreams, so
results do not depend on scheduling order.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .constructions import quantile_estimator
from .distfn import DistributionFunction, UniformDF, edf_from_sample, sup_distance
from .ifs import iterate_exact
from .randstats import BetaDF, BetaParams, SeededRng, derive_substream, sample_beta

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
    """One simulation row: target, sample size, estimator and protocol knobs."""

    distribution: BetaParams
    n: int
    k: int | str = "auto"
    iters: int = 4
    eval_points: int = 20
    trials: int = 30
    seed: int = 0
    exact_sup: bool = False

    def resolved_k(self) -> int:
        if self.k == "auto":
            k = max(2, min(ceil(self.n / 2), self.n - 1))
        else:
            k = int(self.k)
        if not 2 <= k < self.n:
            raise ValueError(f"need 2 <= k < n, got k={k}, n={self.n}")
        return k

    def check(self) -> None:
        self.resolved_k()
        if self.iters < 1:
            raise ValueError("iteration count must be >= 1")
        if self.eval_points < 2:
            raise ValueError("eval_points must be >= 2")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    d_estimator: float
    d_edf: float
    ratio: float


def _points_max(f: DistributionFunction, g: DistributionFunction, pts: np.ndarray) -> float:
    return float(np.max(np.abs(f.eval_array(pts) - g.eval_array(pts))))


def run_trial(config: TrialConfig, trial_index: int) -> TrialResult:
    """One seeded trial: sample, estimator, and both sup-norm distances."""
    config.check()
    target = BetaDF(config.distribution)
    rng = SeededRng(derive_substream(config.seed, trial_index))
    sample = sample_beta(config.distribution, config.n, rng)
    system = quantile_estimator(sample, config.resolved_k())
    estimator = iterate_exact(system, UniformDF(), config.iters)
    edf = edf_from_sample(sample)
    if config.exact_sup:
        d_est = sup_distance(estimator, target, grid_size=config.eval_points)
        d_edf = sup_distance(edf, target, grid_size=config.eval_points)
    else:
        pts = np.linspace(0.0, 1.0, config.eval_points)
        d_est = _points_max(estimator, target, pts)
        d_edf = _points_max(edf, target, pts)
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
    config.check()
    results = [run_trial(config, i) for i in range(config.trials)]
    mean_a = float(np.mean([r.d_estimator for r in results]))
    mean_b = float(np.mean([r.d_edf for r in results]))
    ratio_pct = 100.0 * mean_a / mean_b if mean_b > 0.0 else float("nan")
    mean_ratio_pct = 100.0 * float(np.mean([r.ratio for r in results]))
    row = TableRow(
        dist=config.distribution.label(),
        n=config.n,
        k=config.resolved_k(),
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
