"""The one pool of worker processes: independent calls, results in order.

The workers are forked, not spawned, so they start with every module and
cache the calling process already holds; gkm starts no thread that would
make the fork unsafe.  `fork_map` returns each call's result to the caller;
`fork_write` has each worker write its own result's bytes to a stream,
taking turns in item order, and returns nothing.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(items) -> int:
    return min(len(items), usable_cpus()) if hasattr(os, "fork") else 1


def fork_map(fn, items):
    """Yield fn(item) for each item of the sequence `items`, in order.

    min(len(items), usable_cpus()) forked processes make the calls.  They
    read `fn` and `items` from the memory they inherited, so only each
    item's index and its result are pickled, and `fn` may be any callable.
    With one worker, or without `os.fork`, the calls run here one after
    another.  A call's exception is raised here when its result is reached.
    """
    workers = _workers(items)
    if workers <= 1:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the job reaches each worker through its fork, not through a pickle
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_job, initargs=(fn, items)) as pool:
        yield from pool.map(_call, range(len(items)))


def fork_write(fh, fn, items) -> None:
    """Write the bytes fn(item) of each item of the sequence `items` to the
    binary stream fh, in order.

    The calls run as in `fork_map`, and each worker writes the bytes it made
    itself to fh's file descriptor, once the items before it are written:
    the workers share this process's open file description, and so its
    offset.  Nothing but None comes back.  A call that raises writes nothing
    and stops every later item from writing; its exception is raised here,
    the first in item order.  With one worker, or to a stream without a file
    descriptor (one in memory), fh.write writes the bytes here, item by item.
    """
    fd = _fileno(fh)
    if fd is None or _workers(items) <= 1:
        for item in items:
            fh.write(fn(item))
        return
    # no forked worker may hold a copy of unwritten bytes, and the items
    # written to the descriptor follow what fh was given before
    fh.flush()
    # made before the fork, so that every worker shares it
    turns = _Turns()

    def job(i):
        try:
            data = fn(items[i])
        except BaseException:
            turns.take(i, None)
            raise
        turns.take(i, lambda: _write_all(fd, data))

    for _ in fork_map(job, range(len(items))):
        pass


def _fileno(fh) -> int | None:
    """The file descriptor under the binary stream fh, or None for a stream
    without one (in memory)."""
    try:
        return fh.fileno()
    except (AttributeError, OSError):
        return None


def _write_all(fd: int, data) -> None:
    """os.write the bytes data to fd, again after a partial write, until
    every byte is out."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class _Turns:
    """Turns 0, 1, 2, ... that forked processes take in order."""

    def __init__(self):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._cond = ctx.Condition()
        # the turn that may be taken next; -1 once a turn has failed
        self._next = ctx.RawValue("q", 0)

    def take(self, i: int, act) -> None:
        """Wait until turns 0..i-1 are over, then take turn i: call act(),
        unless it is None or a turn before failed.  Turn i fails when act is
        None or raises, and every later turn is then over at once, without
        its act."""
        with self._cond:
            self._cond.wait_for(lambda: self._next.value in (i, -1))
            if self._next.value == -1:
                return
            self._next.value = -1
            try:
                if act is not None:
                    act()
                    self._next.value = i + 1
            finally:
                self._cond.notify_all()


# in a worker, the (fn, items) of the fork_map that started it
_job = None


def _set_job(fn, items):
    global _job
    _job = fn, items


def _call(i: int):
    fn, items = _job
    return fn(items[i])
