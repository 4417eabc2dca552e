"""Compiled engine: a ctypes binding to the C core in ``_ppa.c``.

``_ppa.c`` computes every value of rng.py, benchmarks.py and core.py as the
same double, with the same draws in the same order: mostly by the same
operations, and where it takes another route (its per-run tables, its
shortcuts and its mutation step) by one that the comment there proves gives
the same result. So a run here is bit-identical to the pure-Python engine.
This module checks what the core needs and no record checks, moves numbers
across the boundary and turns the core's status codes into exceptions.

Importing the module loads the core from the per-user cache directory,
``$XDG_CACHE_HOME/plantprop`` or else ``~/.cache/plantprop``; a relative
``XDG_CACHE_HOME`` is ignored, as the XDG Base Directory spec asks, so the
library is not built anew in each working directory. The library's
file name is a hash of the source and the compiler command, so an edited
source or changed flags get a fresh build. On a miss the source is compiled
once with ``cc`` into a temporary file that is then renamed into place, so
simultaneous first imports are safe; then all but the ``_KEEP`` most recently
modified libraries in the directory are deleted, so builds of older sources
do not pile up. A hit neither lists nor changes the directory. Any failure
raises ImportError with the reason, and ``engine`` runs the pure-Python
engine instead.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import struct
from pathlib import Path

from .benchmarks import formula_id
from .rng import MASK64

_SOURCE = Path(__file__).with_name("_ppa.c")
_CC = "cc"
_FLAGS = ("-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LIBS = ("-lm",)
_COMPILE_TIMEOUT_S = 300
_KEEP = 4  # compiled libraries left in the cache after a miss, the new one included

_INT64_MAX = 2**63 - 1

# ppa_run's status codes, PPA_* in _ppa.c (0 is success)
_NONFINITE, _NOMEM, _RANGE = 1, 2, 3

# _ppa.c's ppa_step: int64 evaluation index, then the double best so far
_STEP = struct.Struct("=qd")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(base):
        return Path(base) / "plantprop"
    try:
        return Path.home() / ".cache" / "plantprop"
    except RuntimeError as exc:  # no HOME and no password entry
        raise ImportError(f"no cache directory for the C core: {exc}") from exc


def _compile(target: Path) -> None:
    import subprocess

    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    command = [_CC, *_FLAGS, "-o", str(tmp), str(_SOURCE), *_LIBS]
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=_COMPILE_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise ImportError(
                f"compiling the C core failed ({' '.join(command)}): "
                f"{proc.stderr.strip()}"
            )
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise ImportError(f"cannot compile the C core with {_CC!r}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def _prune(keep: Path) -> None:
    """Delete the _ppa-*.so files beside `keep` but it and the _KEEP - 1 newest.

    Best effort: it gives up if another process deletes a library meanwhile.
    A ``*.tmp`` file, another process's build in progress, never matches.
    """
    try:
        libs = sorted(
            (lib for lib in keep.parent.glob("_ppa-*.so") if lib != keep),
            key=lambda lib: lib.stat().st_mtime,
            reverse=True,
        )
        for lib in libs[_KEEP - 1:]:
            lib.unlink(missing_ok=True)
    except OSError:
        pass


def _load() -> ctypes.CDLL:
    """The C core with every signature declared, compiled first on a miss."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise ImportError(f"cannot read the C core: {exc}") from exc
    # importlib's SipHash rather than hashlib: hashlib loads OpenSSL, which
    # costs every process that imports plantprop about 3.5 MB of memory.
    key = importlib.util.source_hash(
        source + "\0".join((_CC, *_FLAGS, *_LIBS)).encode()
    ).hex()
    path = _cache_dir() / f"_ppa-{key}.so"
    if not path.exists():
        _compile(path)
        _prune(path)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise ImportError(f"cannot load the C core {path}: {exc}") from exc

    i64, f64, u64 = ctypes.c_int64, ctypes.c_double, ctypes.c_uint64
    f64_p = ctypes.POINTER(f64)
    lib.ppa_run.argtypes = [
        ctypes.c_int, i64, f64_p, f64_p,  # function id, dim, lower, upper
        i64, i64, i64,  # pop_size, n_max, budget
        f64, u64,  # factor (inf for vanilla), seed
        f64_p,  # best point
        ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(i64),  # trajectory
        f64_p,  # the non-finite objective value
    ]
    lib.ppa_run.restype = ctypes.c_int
    lib.ppa_eval.argtypes = [ctypes.c_int, i64, f64_p, f64, f64_p]  # ..., x, fmax, scratch
    lib.ppa_eval.restype = f64
    lib.ppa_rng_u64.argtypes = [u64, ctypes.c_size_t, ctypes.POINTER(u64)]
    lib.ppa_rng_u64.restype = None
    lib.ppa_rng_uniform.argtypes = [u64, ctypes.c_size_t, f64_p]
    lib.ppa_rng_uniform.restype = None
    lib.ppa_free.argtypes = [ctypes.c_void_p]
    lib.ppa_free.restype = None
    return lib


_lib = _load()


def rng_u64_stream(seed: int, n: int) -> list[int]:
    """First n raw 64-bit outputs for a seed (parity/golden-vector tests)."""
    out = (ctypes.c_uint64 * n)()
    _lib.ppa_rng_u64(seed & MASK64, n, out)
    return list(out)


def rng_uniform_stream(seed: int, n: int) -> list[float]:
    """First n uniform doubles in [0, 1) for a seed."""
    out = (ctypes.c_double * n)()
    _lib.ppa_rng_uniform(seed & MASK64, n, out)
    return list(out)


def run(config, function, seed):
    """Generational loop; same semantics and draw order as the pure engine.

    `config` (a PpaConfig) and `function` (a BenchmarkFunction) made their
    own checks, integer counts and dimension among them; this adds
    only what the C core needs beyond them: a registered formula, and counts
    that fit in int64. The steepness is evals/factor + 1, so factor = inf
    runs vanilla PPA.

    Returns (best_value, best_point, trajectory, evaluations_used) with the
    trajectory as a tuple of (evaluation_index, best_so_far) pairs of int
    and float, ready for RunResult. The C core closes the trajectory at
    (evaluations_used, best_value), so both are read from its last step.
    """
    func_id = formula_id(function)
    if func_id is None:
        raise ValueError(
            f"the compiled backend only runs registered benchmark functions "
            f"with their built-in formula; {function.name!r} is not one"
        )
    dim = function.dimension
    pop_size, n_max, budget = config.pop_size, config.n_max, config.budget
    for name, value in (("pop_size", pop_size), ("n_max", n_max), ("budget", budget)):
        if value > _INT64_MAX:
            raise ValueError(f"{name} must be at most 2**63 - 1, got {value}")

    vector = ctypes.c_double * dim
    best_point = vector()
    steps = ctypes.c_void_p()
    n_steps = ctypes.c_int64()
    bad = ctypes.c_double()
    status = _lib.ppa_run(
        func_id, dim, vector(*function.bounds.lower), vector(*function.bounds.upper),
        pop_size, n_max, budget, config.schedule.factor, seed & MASK64,
        best_point, ctypes.byref(steps), ctypes.byref(n_steps), ctypes.byref(bad),
    )
    try:
        if status == _NONFINITE:
            raise ValueError(f"objective produced a non-finite value: {bad.value}")
        if status == _RANGE:
            raise ValueError("objective values span more than the float range")
        if status == _NOMEM:
            raise MemoryError(
                f"cannot allocate the buffers for pop_size={pop_size}, "
                f"n_max={n_max}, budget={budget}, dimension={dim}"
            )
        trajectory = tuple(
            _STEP.iter_unpack(ctypes.string_at(steps, _STEP.size * n_steps.value))
        )
    finally:
        _lib.ppa_free(steps)
    evals, best = trajectory[-1]
    point = tuple(best_point) if best < float("inf") else ()
    return best, point, trajectory, evals
