"""The one pool of worker processes: independent calls, results in order.

The workers are forked, not spawned, so they start with every module and
cache the calling process already holds; gkm starts no thread that would
make the fork unsafe.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn, items, max_workers: int):
    """Yield fn(item) for each item of the sequence `items`, in order.

    At most min(max_workers, usable_cpus()) forked processes make the calls.
    They read `fn` and `items` from the memory they inherited, so only each
    item's index and its result are pickled, and `fn` may be any callable.
    With one worker, or without `os.fork`, the calls run here one after
    another.  A call's exception is raised here when its result is reached.
    """
    workers = min(max_workers, usable_cpus()) if hasattr(os, "fork") else 1
    if workers <= 1:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the job reaches each worker through its fork, not through a pickle
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_job, initargs=(fn, items)) as pool:
        yield from pool.map(_call, range(len(items)))


# in a worker, the (fn, items) of the fork_map that started it
_job = None


def _set_job(fn, items):
    global _job
    _job = fn, items


def _call(i: int):
    fn, items = _job
    return fn(items[i])
