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

import contextlib
import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

__all__ = ["replication_map", "default_workers"]


def default_workers() -> int:
    return os.cpu_count() or 1


def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled with the numpy wheel, through ctypes; None
    without it.  Found by listing the directory: the parent calls this
    before each pool it forks, and ``glob``'s pattern matching raised the
    parent's peak RSS by about 0.2 MB."""
    import numpy

    libs = os.path.dirname(numpy.__file__) + ".libs"
    names = os.listdir(libs) if os.path.isdir(libs) else []
    return next((ctypes.CDLL(os.path.join(libs, name)) for name in names
                 if name.startswith("libscipy_openblas64_") and name.endswith(".so")), None)


def _blas_threads(count: int | None = None) -> int | None:
    """Set the thread count of the bundled OpenBLAS to ``count``, when given
    and different, and return the count before, as ``np.seterr`` does; None,
    and nothing set, without that library or its symbols."""
    lib = _openblas()
    getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if getter is None or setter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    previous = getter()
    if count is not None and count != previous:
        setter(count)
    return previous


@contextlib.contextmanager
def _one_blas_thread_to_fork():
    """Within, the bundled OpenBLAS runs one thread, so that processes forked
    there inherit one and start no thread server of their own (OpenBLAS stops
    the server at a fork and starts it again only for a threaded call or a
    call of its setter, whose server thread then spins a core for about
    0.1 s).  The count is written to and restored in the library's
    ``blas_cpu_number`` rather than through the setter, which, after the
    fork, would start that spinning thread in this process; nothing changes
    without that symbol."""
    try:
        count = ctypes.c_int.in_dll(_openblas(), "blas_cpu_number")
    except (AttributeError, ValueError):  # no library, or no such symbol
        yield
        return
    previous, count.value = count.value, 1
    try:
        yield
    finally:
        count.value = previous


_stop = None  # a pool worker's copy of the event its map sets on the first error


def _start_worker(stop) -> None:
    """Pool initializer: keep the stop event, and run one BLAS thread so
    that workers x BLAS threads stay within the cores.  A forked worker
    inherits one thread from :func:`_one_blas_thread_to_fork`, so no setter
    is called there."""
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
    with _one_blas_thread_to_fork(), ProcessPoolExecutor(
        processes, initializer=_start_worker, initargs=(stop,)
    ) as pool:
        lead = [pool.submit(head) for head in heads]
        guarded = functools.partial(_unless_stopped, fn)
        results = pool.map(guarded, range(replications), chunksize=chunk)
        try:  # the heads' results, or their first error, come before any replication's
            return [future.result() for future in lead] + list(results)
        except BaseException:
            stop.set()  # the chunks still running skip what is left of them
            raise
