"""Forked worker processes for Monte Carlo replications and large CV folds, each at one BLAS thread."""

import functools
import importlib
import os

# The extension modules that link numpy's and scipy's BLAS, and the names of
# OpenBLAS's thread-count setter in the builds that bundle it (symbol-suffixed
# in the scipy-openblas wheels) and in a plain OpenBLAS.
_BLAS_MODULES = ("numpy.linalg._umath_linalg", "scipy.linalg._fblas")
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def _blas_thread_setters() -> tuple | None:
    """The thread-count setter of the BLAS under numpy and under scipy; None if either has none.

    A forked process inherits BLAS already loaded, past the reach of the
    environment variables BLAS reads at load, so the count is set by call.
    """
    import ctypes

    libraries = [ctypes.CDLL(importlib.import_module(module).__file__) for module in _BLAS_MODULES]
    setters = tuple(next((getattr(library, name) for name in _BLAS_SETTERS if hasattr(library, name)), None)
                    for library in libraries)
    return None if None in setters else setters


def _one_blas_thread() -> None:
    for setter in _blas_thread_setters():
        setter(1)


def _worker_pool(tasks: int):
    """Forked workers, one per usable core up to ``tasks``; None to run the tasks in this process.

    None in a daemonic process (which may not have children), on one core,
    and where fork or a BLAS thread setter is missing.
    """
    import multiprocessing

    if (not hasattr(os, "sched_getaffinity")
            or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    workers = min(len(os.sched_getaffinity(0)), tasks)
    if workers < 2 or _blas_thread_setters() is None:
        return None
    return multiprocessing.get_context("fork").Pool(workers, _one_blas_thread)


def _map(function, tasks: int, parallel: bool = True):
    """``function(0)``, ..., ``function(tasks - 1)`` in task order: in forked workers one task at a time, else lazily here.

    The workers run only with ``parallel`` and where :func:`_worker_pool`
    starts them; they are closed on return, so none outlives the call.
    """
    pool = _worker_pool(tasks) if parallel else None
    if pool is None:
        return map(function, range(tasks))
    with pool:
        return pool.map(function, range(tasks), chunksize=1)
