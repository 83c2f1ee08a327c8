"""IFS operators on distribution functions over [0,1].

Builds weighted iterated function systems whose operator acts on
distribution functions, solves the inverse (collage) problem as a convex
minimax program, provides exact e.d.f. and quantile-interpolating
constructions plus an empirical-quantile estimator, and ships a seeded
simulation harness comparing the estimator against the e.d.f. in sup norm.
"""

__version__ = "0.1.0"

from . import distfn, ifs, inverse, constructions, randstats, sim
from .distfn import *
from .ifs import *
from .inverse import *
from .constructions import *
from .randstats import *
from .sim import *

__all__ = ["__version__"] + [
    name
    for module in (distfn, ifs, inverse, constructions, randstats, sim)
    for name in module.__all__
]
