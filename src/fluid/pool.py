"""The one thread pool of the program, shared by two stages: the gate
kernel's (head, block) work items and top-k selection's score chunks."""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait


_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _new_pool():
    # threads start on the first submit; a forked child inherits the pool
    # object but none of its threads, so it gets a pool of its own
    global _pool
    _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="fluid-pool")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _run_items(fn, items: list[tuple]) -> list:
    """fn(*item) for every item, results in item order.

    Items run on the module's thread pool, made once at import with one
    thread per CPU, when there are several workers and several items, else
    inline; a pooled item runs in a copy of the caller's context, so the
    caller's ``np.errstate`` holds in it. Callers in several threads may
    submit at once, but an item must never submit to the pool: with every
    worker waiting on a nested item, nothing would run it. Every item
    finishes before the first exception (in item order) is raised. Item
    bodies are pure numpy, which releases the GIL inside ufuncs and GEMMs.
    """
    if min(_WORKERS, len(items)) <= 1:
        return [fn(*item) for item in items]
    futures = [_pool.submit(contextvars.copy_context().run, fn, *item)
               for item in items]
    wait(futures)
    return [f.result() for f in futures]
