"""Backend selection: compiled kernel when available, pure Python otherwise.

Both backends produce bit-identical results for the built-in benchmark
functions (same RNG stream, same double arithmetic); the compiled one is
just faster. Custom objective callables always go through the Python
engine; observers are a feature of the reference, core.run_ppa.
"""

from __future__ import annotations

from . import core
from .benchmarks import FORMULAS, FUNCTION_IDS, BenchmarkFunction
from .core import PpaConfig, RunResult
from .rng import MASK64

# KERNEL_ERROR says why the compiled kernel is unavailable; None when it loaded.
try:
    from . import _kernel
except ImportError as exc:  # pragma: no cover - depends on the build environment
    _kernel = None
    KERNEL_ERROR: str | None = str(exc)
else:
    KERNEL_ERROR = None

HAVE_KERNEL = _kernel is not None
DEFAULT_BACKEND = "compiled" if HAVE_KERNEL else "python"
BACKENDS = ("auto", "compiled", "python")


def _kernel_id(function: BenchmarkFunction) -> int | None:
    """The C core's id for the function's formula; None for a custom callable.

    The name alone does not decide: a function built with a registered
    name and its own callable must not run the built-in formula.
    """
    func_id = FUNCTION_IDS.get(function.name)
    if func_id is None or function._fn is not FORMULAS[function.name]:
        return None
    return func_id


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
    fallback.

    Only the compiled engine checks sizes: it raises MemoryError before a
    run whose buffers overflow or cannot be allocated, which the CLI
    reports as an ``error: ...`` line. The Python engine has no size limit.
    It builds ``pop_size`` individuals and each generation's offspring as
    Python objects, so a size that does not fit in memory fails however the
    interpreter runs out of it.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    func_id = _kernel_id(function)
    if backend == "auto":
        backend = "compiled" if HAVE_KERNEL and func_id is not None else "python"
    if backend == "python":
        return core.run_ppa(config, function, seed)

    if not HAVE_KERNEL:
        raise RuntimeError(
            f"the compiled backend is unavailable ({KERNEL_ERROR}); "
            "use backend='python' or 'auto'"
        )
    if func_id is None:
        raise ValueError(
            f"the compiled backend only runs registered benchmark functions "
            f"with their built-in formula; {function.name!r} is not one"
        )

    best, best_point, trajectory, evals = _kernel.run(
        func_id,
        function.dimension,
        list(function.bounds.lower),
        list(function.bounds.upper),
        config.pop_size,
        config.n_max,
        config.budget,
        config.schedule.factor,
        seed & MASK64,
    )
    return RunResult(
        best_value=best,
        best_point=best_point,
        trajectory=trajectory,
        evaluations_used=evals,
        seed=seed,
    )
