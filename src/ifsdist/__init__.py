"""IFS operators on distribution functions over [0,1].

Builds weighted iterated function systems whose operator acts on
distribution functions, solves the inverse (collage) problem as a convex
minimax program, provides exact e.d.f. and quantile-interpolating
constructions plus an empirical-quantile estimator, and ships a seeded
simulation harness comparing the estimator against the e.d.f. in sup norm.
"""

__version__ = "0.1.0"

from .distfn import (
    DistributionFunction,
    EmpiricalDF,
    FuncDF,
    GridDF,
    UniformDF,
    edf_from_sample,
    read_function_csv,
    read_sample_file,
    sup_distance,
    write_function_csv,
)
from .ifs import (
    AffineMap,
    FixedPointResult,
    IfsSystem,
    IteratedDF,
    apply,
    contractivity,
    default_mesh,
    fixed_point,
    iterate,
    iterate_exact,
    perturbation_bound,
    read_system_json,
    system_from_json,
    system_to_json,
    validate,
    write_system_json,
)
from .inverse import (
    CollageProblem,
    InverseSolution,
    collage_bound,
    collage_distance,
    solve_inverse,
)
from .constructions import (
    edf_ifs,
    empirical_quantile,
    quantile_estimator,
    quantile_ifs,
)
from .randstats import (
    BetaDF,
    BetaParams,
    SeededRng,
    beta_cdf,
    beta_quantile,
    derive_substream,
    parse_distribution,
    sample_beta,
)
from .sim import (
    SimulationTable,
    TableRow,
    TrialConfig,
    TrialResult,
    run_table,
    run_trial,
)

__all__ = [
    "__version__",
    "DistributionFunction", "EmpiricalDF", "FuncDF", "GridDF", "UniformDF",
    "edf_from_sample", "sup_distance",
    "read_sample_file", "read_function_csv", "write_function_csv",
    "AffineMap", "IfsSystem", "IteratedDF", "FixedPointResult",
    "validate", "apply", "iterate", "iterate_exact", "contractivity",
    "fixed_point", "perturbation_bound", "default_mesh",
    "system_to_json", "system_from_json", "read_system_json", "write_system_json",
    "CollageProblem", "InverseSolution", "collage_distance", "solve_inverse",
    "collage_bound",
    "edf_ifs", "quantile_ifs", "quantile_estimator",
    "empirical_quantile",
    "BetaParams", "BetaDF", "SeededRng", "beta_cdf", "beta_quantile",
    "sample_beta", "derive_substream", "parse_distribution",
    "TrialConfig", "TrialResult", "TableRow", "SimulationTable",
    "run_trial", "run_table",
]
