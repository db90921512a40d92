"""Forked child processes for Monte Carlo replications and large CV folds, each at one BLAS thread."""

import functools
import importlib
import os
import pickle
import signal
import traceback

# The extension modules that link numpy's and scipy's BLAS, and the names of
# OpenBLAS's thread-count setter in the builds that bundle it (symbol-suffixed
# in the scipy-openblas wheels) and in a plain OpenBLAS.
_BLAS_MODULES = ("numpy.linalg._umath_linalg", "scipy.linalg._fblas")
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")

# True in a child forked by _map: a nested call (a replication's CV) runs in place.
_in_child = False


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


def _run_share(function, share: range, write: int):
    """In a forked child: pickle each task's result, or its exception, to ``write``, then exit."""
    global _in_child
    _in_child, status = True, 1
    try:
        for setter in _blas_thread_setters():
            setter(1)
        with os.fdopen(write, "wb") as out:
            for task in share:
                try:
                    message = (True, function(task))
                except Exception as exc:
                    message = (False, exc)
                pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def _map(function, tasks: int, parallel: bool = True):
    """``function(0)``, ..., ``function(tasks - 1)`` in task order: in forked children, else lazily here.

    Child k of one per usable core (up to ``tasks``) runs tasks k, k + workers,
    ...; this process reads their results in task order.  A task's exception
    is raised here, as is ``ChildProcessError`` naming the exit status of a
    child that sent no result.  Children are killed on failure, and reaped.
    """
    if (not parallel or _in_child or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or _blas_thread_setters() is None):
        return map(function, range(tasks))
    workers = min(len(os.sched_getaffinity(0)), tasks)
    pids, streams = [], []
    try:
        for k in range(workers):
            read, write = os.pipe()
            streams.append(os.fdopen(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    os.close(read)
                    _run_share(function, range(k, tasks, workers), write)
                pids.append(pid)
            finally:
                os.close(write)
        results = []
        for task in range(tasks):
            k = task % workers
            try:
                sent, value = pickle.load(streams[k])
            except (EOFError, pickle.UnpicklingError):
                status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(k), 0)[1])
                raise ChildProcessError(f"worker {k} exited with status {status} "
                                        f"before sending the result of task {task}") from None
            if not sent:
                raise value
            results.append(value)
        return results
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for stream in streams:
            stream.close()
        for pid in pids:
            os.waitpid(pid, 0)
