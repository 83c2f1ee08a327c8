"""Command-line driver.

Subcommands: approximate (quantile system for a known CDF), edf-ifs (exact
e.d.f. system), invert (collage inverse problem), estimate (empirical
quantile estimator), simulate (seeded estimator-vs-e.d.f. sweep).

Exit codes: 0 success, 1 validation/usage error (or out of memory), 2 I/O
error.  ``--config PATH`` or ``--config=PATH`` reads key=value lines as
flag defaults; the environment variable IFS_SEED is the seed fallback.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .constructions import edf_ifs, quantile_estimator, quantile_ifs
from .distfn import (
    UniformDF,
    edf_from_sample,
    read_function_csv,
    read_sample_file,
    write_function_csv,
)
from .ifs import _MapTable, default_mesh, iterate_exact, write_system_json
from .inverse import CollageProblem, solve_inverse
from .randstats import BetaDF, BetaParams, parse_distribution
from .sim import TrialConfig, run_table


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@functools.cache
def _config_parser() -> _Parser:
    """--config alone: a parent of every subcommand, and the parser that finds
    the file before the full parse."""
    parser = _Parser(prog="ifsdist", add_help=False)
    parser.add_argument("--config", default=None, help="file of key=value flag defaults")
    return parser


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ifsdist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ifsdist {__version__}")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands, each declared once in a parent parser
    out = _Parser(add_help=False, parents=[_config_parser()])
    out.add_argument("--out", required=True)
    dist, sample, iters = (_Parser(add_help=False) for _ in range(3))
    dist.add_argument("--dist", required=True, help="target CDF, e.g. beta:2,2 or uniform")
    sample.add_argument("--sample", required=True, help="file with one value per line")
    iters.add_argument("--iters", type=int, default=TrialConfig.iters)

    def command(name, text, *parents):
        return sub.add_parser(name, help=text, parents=[*parents, out])

    p = command("approximate", "quantile IFS for a known CDF, dumped as CSV", dist, iters)
    p.add_argument("--points", type=int, required=True, help="number of interior quantiles")

    command("edf-ifs", "exact e.d.f. IFS of a sample, dumped as JSON", sample)

    p = command("invert", "solve the collage inverse problem")
    p.add_argument("--target", required=True,
                   help="dist spec, edf:<samplefile>, or an x,value CSV path")
    p.add_argument("--target-mode", default="linear", choices=["linear", "step"],
                   help="interpolation mode when the target is a CSV dump")
    p.add_argument("--partition", required=True,
                   help="auto:N, sample:<file>, or a file of interior breakpoints")

    p = command("estimate", "empirical quantile estimator, dumped as CSV", sample, iters)
    p.add_argument("--k", type=int, required=True)

    p = command("simulate", "estimator vs e.d.f. comparison sweep", dist, iters)
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    p.add_argument("--k", default=TrialConfig.k, help="quantile count or 'auto' (= ceil(n/2))")
    p.add_argument("--trials", type=int, default=TrialConfig.trials)
    p.add_argument("--seed", default=None)
    p.add_argument("--eval-points", type=int, default=TrialConfig.eval_points)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility (>= 1); trials run serially")
    p.add_argument("--exact-sup", action="store_true",
                   help="augment the evaluation points with the iterate's breakpoints; "
                        "past 4096 of them a subset is kept, and the sup is a lower bound")

    parser.commands = sub.choices
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Insert key=value pairs from --config as flags right after the
    subcommand, so that explicit flags win.  The file is the one argparse
    stores, in any form it accepts: --config PATH, --config=PATH, a prefix
    such as --conf, and the last of several.  A key that is neither a flag of
    the subcommand nor a prefix of just one is reported with its file and line."""
    if not any(token.startswith("--c") for token in argv):
        return argv
    try:
        path = _config_parser().parse_known_args(argv)[0].config
    except _UsageError:  # a --config without a path: the full parse reports it
        return argv
    if path is None:
        return argv
    at = next((i + 1 for i, token in enumerate(argv) if token in _COMMANDS), len(argv))
    command = _build_parser().commands.get(argv[at - 1])  # None: the full parse reports it
    options = () if command is None else command._option_string_actions
    injected: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            flag = "--" + key.replace("_", "-")
            names = [option for option in options if option.startswith(flag)]
            if options and flag not in names and len(names) != 1:
                raise ValueError(f"{path}:{line_no}: key {key!r} names no single flag "
                                 f"of {argv[at - 1]}")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    injected.append(flag)
            else:
                injected.extend([flag, value])
    return argv[:at] + injected + argv[at:]


def _integer(text: str, source: str) -> int:
    """int(text), or ValueError naming the flag or variable it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{source}: not an integer: {text!r}") from None


def _target_from_spec(spec: str, mode: str):
    if spec.startswith("edf:"):
        return edf_from_sample(read_sample_file(spec[len("edf:"):]))
    text = spec.strip().lower()
    if text == "uniform" or text.startswith("beta:"):
        return BetaDF(parse_distribution(spec))
    return read_function_csv(spec, mode=mode)


def _partition_maps(spec: str):
    if spec.startswith("auto:"):
        cells = _integer(spec[len("auto:"):], "--partition auto")
        if cells < 1:
            raise ValueError("auto partition needs at least one cell")
        cuts = np.linspace(0.0, 1.0, cells + 1)
    else:
        # a sample may come in any order; a breakpoint file lists the cuts in order
        is_sample = spec.startswith("sample:")
        xs = read_sample_file(spec[len("sample:"):] if is_sample else spec)
        if not is_sample and np.any(np.diff(xs) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        cuts = edf_from_sample(xs).grid
    return _MapTable.on_cells(cuts, identity=True)


def _write_iterate(system, args) -> int:
    it = iterate_exact(system, UniformDF(), args.iters)
    write_function_csv(it, args.out, mesh=default_mesh(system))
    return 0


def _cmd_approximate(args) -> int:
    return _write_iterate(quantile_ifs(BetaDF(parse_distribution(args.dist)), args.points), args)


def _cmd_edf_ifs(args) -> int:
    sample = read_sample_file(args.sample)
    write_system_json(edf_ifs(sample), args.out)
    return 0


def _cmd_invert(args) -> int:
    target = _target_from_spec(args.target, args.target_mode)
    maps = _partition_maps(args.partition)
    problem = CollageProblem(target, maps, np.zeros(maps.k - 1))
    solution = solve_inverse(problem)
    text = json.dumps(solution.to_json(), indent=2, allow_nan=False)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


def _cmd_estimate(args) -> int:
    return _write_iterate(quantile_estimator(read_sample_file(args.sample), args.k), args)


def _cmd_simulate(args) -> int:
    dist = parse_distribution(args.dist)
    sizes = [_integer(s, "--n") for s in str(args.n).split(",") if s.strip()]
    if not sizes:
        raise ValueError("--n needs at least one sample size")
    if args.seed is not None:
        seed = _integer(args.seed, "--seed")
    else:
        seed = _integer(os.environ.get("IFS_SEED", "0"), "IFS_SEED")
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    configs = [
        TrialConfig(
            distribution=dist,
            n=n,
            k=args.k,  # "auto" or a count that resolved_k reads with int()
            iters=args.iters,
            eval_points=args.eval_points,
            trials=args.trials,
            seed=seed,
            exact_sup=args.exact_sup,
        )
        for n in sizes
    ]
    table = run_table(configs)
    table.write_csv(args.out)
    return 0


_COMMANDS = {
    "approximate": _cmd_approximate,
    "edf-ifs": _cmd_edf_ifs,
    "invert": _cmd_invert,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
}


def cli_main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
