"""Deterministic replication-level parallelism.

Replications are sharded by index modulo the worker count and executed in
separate processes; results are buffered and handed back in replication
order, so any reduction over them is independent of scheduling.  Worker
callables must be picklable (module-level functions, optionally wrapped in
``functools.partial`` with picklable arguments).
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")

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


def _run_shard(fn: Callable[[int], T], indices: list[int]) -> list[tuple[int, T]]:
    return [(i, fn(i)) for i in indices]


def replication_map(fn: Callable[[int], T], replications: int, workers: int = 1) -> list[T]:
    """Evaluate ``fn(i)`` for i in 0..replications-1, in index order.

    With ``workers`` > 1 the index classes i mod workers run in parallel
    processes, at most one per logical core, each with one BLAS thread; the
    returned list is always ordered by replication index.
    """
    if replications < 0:
        raise ValueError("replications must be nonnegative")
    if workers <= 1 or replications <= 1:
        return [fn(i) for i in range(replications)]
    shards = [list(range(w, replications, workers)) for w in range(workers)]
    shards = [s for s in shards if s]
    out: list = [None] * replications
    processes = min(len(shards), default_workers())
    # one BLAS thread per worker, so that workers x BLAS threads stay within the cores
    one_thread = functools.partial(_blas_threads, 1)
    with ProcessPoolExecutor(max_workers=processes, initializer=one_thread) as pool:
        for pairs in pool.map(_run_shard, [fn] * len(shards), shards):
            for i, value in pairs:
                out[i] = value
    return out
