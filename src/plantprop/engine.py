"""Backend selection: compiled kernel when available, pure Python otherwise.

Both backends produce bit-identical results for the built-in benchmark
functions (same RNG stream, same double arithmetic); the compiled one is
just faster. Custom objective callables always go through the Python
engine; observers are a feature of the reference, core.run_ppa.
"""

from __future__ import annotations

from . import core
from ._record import check_integer
from .benchmarks import BenchmarkFunction, formula_id
from .core import PpaConfig, RunResult

# KERNEL_ERROR says why the compiled kernel is unavailable; None when it loaded.
try:
    from . import _kernel
except ImportError as exc:  # pragma: no cover - depends on the build environment
    _kernel = None
    KERNEL_ERROR: str | None = str(exc)
else:
    KERNEL_ERROR = None

# the values of run's `backend`
BACKENDS = ("auto", "compiled", "python")
HAVE_KERNEL = _kernel is not None
DEFAULT_BACKEND = "compiled" if HAVE_KERNEL else "python"


def run(
    config: PpaConfig,
    function: BenchmarkFunction,
    seed: int,
    backend: str = "auto",
) -> RunResult:
    """Run one optimization with an explicit or automatically chosen backend.

    `auto` picks the compiled kernel when it loaded and the function is one
    of the registered benchmarks with its built-in formula (on any bounds);
    otherwise it falls back to the Python engine. Requesting `compiled` in
    a situation the kernel cannot handle is an error rather than a silent
    fallback. Which exception each refusal raises is stated once, under
    "Library use" in the README. The Python engine has no size limit: it
    builds ``pop_size`` individuals and each generation's offspring as
    Python objects, so a size that does not fit in memory fails however
    the interpreter runs out of it.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    if backend == "auto":
        compiled = HAVE_KERNEL and formula_id(function) is not None
        backend = "compiled" if compiled else "python"
    if backend == "python":
        return core.run_ppa(config, function, seed)
    check_integer("seed", seed)
    if not HAVE_KERNEL:
        raise ValueError(
            f"the compiled backend is unavailable ({KERNEL_ERROR}); "
            "use backend='python' or 'auto'"
        )
    best, best_point, trajectory, evals = _kernel.run(config, function, seed)
    return RunResult(best, best_point, trajectory, evals, seed)
