"""Plant propagation optimizer with a tunable fitness-steepening schedule."""

from .benchmarks import (
    FIXED_2D_NAMES,
    FUNCTION_NAMES,
    SCALABLE_NAMES,
    BenchmarkFunction,
    Bounds,
    list_functions,
    make_function,
)
from .core import (
    Individual,
    PpaConfig,
    RunResult,
    SteepeningSchedule,
    fitness,
    normalize,
    offspring_count,
    run_ppa,
    steepness,
)
from .engine import BACKENDS, DEFAULT_BACKEND, HAVE_KERNEL, KERNEL_ERROR, run
from .rng import Xoshiro256pp, derive_subseed

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "BenchmarkFunction",
    "Bounds",
    "DEFAULT_BACKEND",
    "FIXED_2D_NAMES",
    "FUNCTION_NAMES",
    "HAVE_KERNEL",
    "Individual",
    "KERNEL_ERROR",
    "PpaConfig",
    "RunResult",
    "SCALABLE_NAMES",
    "SteepeningSchedule",
    "Xoshiro256pp",
    "derive_subseed",
    "fitness",
    "list_functions",
    "make_function",
    "normalize",
    "offspring_count",
    "run",
    "run_ppa",
    "steepness",
    "__version__",
]
