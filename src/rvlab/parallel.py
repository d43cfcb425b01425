"""Deterministic replication-level parallelism.

Replications run in contiguous chunks of indices, at most one per worker,
in separate processes; the executor hands results back in replication
order, so any reduction over them, and the first error raised, is
independent of scheduling and worker count.  A map may carry ``heads``,
tasks of its own whose results lead the list: in the pool they are
submitted ahead of the chunks, so the processes run them beside the
replications (the two halves of the nu-integral check of :mod:`rvlab.ito`
run this way).
After the first error the pool skips the replications it has not begun.
Worker callables must be picklable (module-level functions, optionally
wrapped in ``functools.partial`` with picklable arguments).
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

__all__ = ["replication_map", "default_workers"]


def default_workers() -> int:
    return os.cpu_count() or 1


def _blas_threads(count: int | None = None) -> int | None:
    """Set the thread count of the OpenBLAS bundled with the numpy wheel to
    ``count``, when given, through ctypes, and return the count before, as
    ``np.seterr`` does; None, and nothing set, without that library or its
    symbols."""
    import glob

    import numpy

    pattern = os.path.dirname(numpy.__file__) + ".libs/libscipy_openblas64_*.so"
    lib = next((ctypes.CDLL(path) for path in glob.glob(pattern)), None)
    getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if getter is None or setter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    previous = getter()
    if count is not None:
        setter(count)
    return previous


_stop = None  # a pool worker's copy of the event its map sets on the first error


def _start_worker(stop) -> None:
    """Pool initializer: keep the stop event, and run one BLAS thread so
    that workers x BLAS threads stay within the cores."""
    global _stop
    _stop = stop
    _blas_threads(1)


def _unless_stopped(fn: Callable[[int], object], i: int) -> object:
    return None if _stop.is_set() else fn(i)  # skipped once the parent met an error


def replication_map(
    fn: Callable[[int], object], replications: int, workers: int = 1,
    heads: Sequence[Callable[[], object]] = (),
) -> list:
    """Evaluate ``fn(i)`` for i in 0..replications-1, in index order, led by
    the results of the zero-argument tasks ``heads``, in their order.

    With ``workers`` > 1, contiguous chunks of ceil(replications / workers)
    indices run in parallel processes, at most one per logical core, each
    with one BLAS thread, and every head is submitted ahead of them, so that
    the heads overlap the chunks; otherwise the heads run in-process before
    replication 0.  The list, and any error raised, are those of a
    sequential run: ``[*(h() for h in heads), fn(0), ..., fn(replications - 1)]``.
    """
    if replications < 0:
        raise ValueError("replications must be nonnegative")
    if workers <= 1 or replications <= 1:
        return [head() for head in heads] + [fn(i) for i in range(replications)]
    chunk = -(-replications // workers)
    processes = min(-(-replications // chunk), default_workers())
    stop = multiprocessing.Event()
    with ProcessPoolExecutor(processes, initializer=_start_worker, initargs=(stop,)) as pool:
        lead = [pool.submit(head) for head in heads]
        guarded = functools.partial(_unless_stopped, fn)
        results = pool.map(guarded, range(replications), chunksize=chunk)
        try:  # the heads' results, or their first error, come before any replication's
            return [future.result() for future in lead] + list(results)
        except BaseException:
            stop.set()  # the chunks still running skip what is left of them
            raise
