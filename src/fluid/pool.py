"""The one thread pool of the program, shared by two stages: the gate
kernel's (head, block) work items and top-k selection's score slices.

The pool owns the parallelism, so BLAS runs on one thread unless the user
set a count: threads of its own would fight the pool's workers for the
CPUs. ``fluid`` sets the variables when it is imported before numpy; for
a program that loaded numpy first, ``_one_blas_thread`` sets numpy's
bundled OpenBLAS to one thread at run time, before the first pooled work.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

from fluid import _BLAS_VARS


_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _new_pool():
    # threads start on the first submit; a forked child inherits the pool
    # object but none of its threads, so it gets a pool of its own
    global _pool
    _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="fluid-pool")


@functools.cache
def _one_blas_thread():
    """One thread for numpy's bundled OpenBLAS unless one of the BLAS
    variables is set; nothing when no such library is found."""
    if any(var in os.environ for var in _BLAS_VARS):
        return
    libs = Path(np.__file__).parent.with_suffix(".libs").glob("lib*openblas*")
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        # the setter of each OpenBLAS build that numpy wheels bundle
        for name in ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            set_threads = getattr(dll, name, None)
            if set_threads is not None:
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                set_threads(1)
                return


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _boxed(context, fn, item):
    # the result in a list that the caller empties: a worker that still
    # holds its finished future then holds no result
    return [context.run(fn, *item)]


def _run_items(fn, items: list[tuple]):
    """Yield fn(*item) for every item, in item order.

    Items run on the module's thread pool, made once at import with one
    thread per CPU, when there are several workers and several items, else
    inline as each result is asked for. A pooled item runs in a copy of the
    caller's context, so the caller's ``np.errstate`` holds in it. The
    first result asked for submits every item; each result is yielded once
    it and every earlier one are done, and the pool keeps no reference to
    it, so a result the caller drops is freed at once. Every pooled item
    finishes before the first exception (in item order) is raised; closing
    the generator early cancels the items not yet started and waits for the
    running ones. Callers in several threads may submit at once, but an
    item must never submit to the pool: with every worker waiting on a
    nested item, nothing would run it. Item bodies are pure numpy, which
    releases the GIL inside ufuncs and GEMMs.
    """
    if min(_WORKERS, len(items)) <= 1:
        for item in items:
            yield fn(*item)
        return
    _one_blas_thread()
    futures = deque(_pool.submit(_boxed, contextvars.copy_context(), fn, item)
                    for item in items)
    try:
        while futures:
            if futures[0].exception() is not None:
                wait(futures)
            yield futures.popleft().result().pop()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
