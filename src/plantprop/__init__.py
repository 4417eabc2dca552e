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
from .rng import Xoshiro256pp, derive_subseed

__version__ = "0.1.0"

# engine's backend names, defined here so that the CLI can offer them
# without importing engine
BACKENDS = ("auto", "compiled", "python")

_FROM_ENGINE = ("DEFAULT_BACKEND", "HAVE_KERNEL", "KERNEL_ERROR", "run")


def __getattr__(name):
    """engine's names, looked up there on each use. engine loads the
    compiled kernel through ctypes, compiling it on a cold cache, so only
    what runs an optimizer imports it (PEP 562)."""
    if name in _FROM_ENGINE:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
