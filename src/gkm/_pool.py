"""The one pool of worker processes: independent calls, results in order.

The workers are made by `os.fork`, so they start with every module and
cache the calling process already holds, and read the function and the
items from that memory; gkm starts no thread that would make the fork
unsafe.  They talk to this process over plain pipes, watched with
`select.poll`: each worker sends, on a pipe of its own, one length-prefixed
pickle of (index, result or exception) per item, and this process yields
the results in item order.  A worker ends by `os._exit`, so it runs no exit
handler and flushes no buffer it inherited.  However the caller's loop
ends (the last result, an exception, or closing the generator), every pipe
end is closed and every worker still running is killed, and every worker
is reaped, before control returns to the caller.

`fork_map` deals the items' indices through one shared pipe, and each
worker takes the next index when it is free, since the calls may differ
much in cost.  `fork_write` deals its items round robin, and each worker
writes its own result's bytes to a stream; the turn to write passes around
a ring of pipes, one per worker, in item order.  An item whose worker ended
without sending its result raises BrokenPool here, naming the item, when
the item is due.

A pool worker makes every pool call of its own (`fork_map`, `fork_write`)
in the serial loop, so a pool never forks from a worker: the CPUs are
already taken by the pool it serves.  Its callers are the verify suites and
the CLI's CSV writer; no library call forks.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from functools import partial

# bytes of an item index on the deal pipe, and of a frame's length prefix
_WORD = 8
# indices written to the deal pipe at once: 4096 bytes, which Linux's
# PIPE_BUF allows to be written whole or not at all, so no worker can read
# half an index
_DEAL_BYTES = 512 * _WORD
# set in each forked worker, whose own pool calls then run serially
_in_worker = False


class BrokenPool(RuntimeError):
    """A worker process ended without sending the result of an item."""


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(items) -> int:
    if _in_worker or not hasattr(os, "fork"):
        return 1
    return min(len(items), usable_cpus())


def fork_map(fn, items):
    """Yield fn(item) for each item of the sequence `items`, in order.

    min(len(items), usable_cpus()) forked processes make the calls.  They
    read `fn` and `items` from the memory they inherited, so only each
    item's index and its result are pickled, and `fn` may be any callable.
    With one worker, without `os.fork`, or in a pool worker, the calls run
    here one after another.  A call's exception is raised here when its
    result is reached.
    """
    workers = _workers(items)
    if workers <= 1:
        yield from map(fn, items)
        return
    with _Workers() as pool:
        deal_r, deal_w = pool.pipe()
        os.set_blocking(deal_w, False)
        for _ in range(workers):
            pool.fork(partial(_take_dealt, fn, items, deal_r), deal_r)
        pool.close(deal_r)
        deal = b"".join(i.to_bytes(_WORD, "little") for i in range(len(items)))
        yield from pool.gather(len(items), deal_w, deal)


def fork_write(fh, fn, items) -> None:
    """Write the bytes fn(item) of each item of the sequence `items` to the
    binary stream fh, in order.

    The calls run as in `fork_map`, but worker k of w makes those of items
    k, k + w, k + 2w, ..., and writes the bytes it made itself to fh's file
    descriptor, once the items before it are written: the workers share
    this process's open file description, and so its offset.  Nothing but
    None comes back.  A call that raises writes nothing; it, or a write
    that fails, stops every later item from writing, and its exception is
    raised here, the first in item order.  With one worker (see
    `fork_map`), or to a stream without a file descriptor (one in memory),
    fh.write writes the bytes here, item by item.
    """
    fd = _fileno(fh)
    workers = _workers(items)
    if fd is None or workers <= 1:
        for item in items:
            fh.write(fn(item))
        return
    # no forked worker may hold a copy of unwritten bytes, and the items
    # written to the descriptor follow what fh was given before
    fh.flush()
    with _Workers() as pool:
        # worker k reads its turns from ring[k] and passes them on to
        # ring[k + 1]; item 0's turn is there from the start
        ring = [pool.pipe() for _ in range(workers)]
        os.write(ring[0][1], b"\1")
        for k in range(workers):
            turn, next_turn = ring[k][0], ring[(k + 1) % workers][1]
            mine = range(k, len(items), workers)
            pool.fork(partial(_write_in_turn, fn, items, fd, mine, turn, next_turn), turn, next_turn)
        pool.close(*(end for pipe in ring for end in pipe))
        for _ in pool.gather(len(items)):
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


class _Workers:
    """Forked workers and the pipe ends this process holds; leaving its
    `with` block closes those ends, then kills and reaps every worker."""

    def __init__(self):
        self.fds = set()
        # the read end of each worker's result pipe -> the worker's pid
        self.pids = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close(*self.fds)
        for pid in self.pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.pids.clear()

    def pipe(self) -> tuple:
        r, w = os.pipe()
        self.fds.update((r, w))
        return r, w

    def close(self, *fds) -> None:
        for fd in fds:
            self.fds.remove(fd)
            os.close(fd)

    def fork(self, serve, *keep) -> None:
        """Fork a worker that calls serve(out), out the write end of a new
        pipe for its results, holding of the ends held here only out and
        those in keep, and then ends."""
        r, out = self.pipe()
        pid = os.fork()
        if pid == 0:
            global _in_worker
            _in_worker = True
            code = 1
            try:
                for fd in self.fds - {out, *keep}:
                    os.close(fd)
                serve(out)
                code = 0
            finally:
                os._exit(code)
        self.pids[r] = pid
        self.close(out)

    def gather(self, count: int, deal_fd: int = -1, deal: bytes = b""):
        """Yield the results of items 0..count-1 in order as the workers send
        them, raising an item's exception in its place, and BrokenPool once
        every worker has ended without sending the item due.  The bytes
        `deal` are written to deal_fd as its pipe takes them; deal_fd is
        closed after the last."""
        poller = select.poll()
        for fd in self.pids:
            poller.register(fd, select.POLLIN)
        deal = memoryview(deal)
        if deal:
            poller.register(deal_fd, select.POLLOUT)
        frames = {fd: bytearray() for fd in self.pids}
        results = {}
        running = len(self.pids)
        for i in range(count):
            while i not in results:
                if not running:
                    raise BrokenPool(f"item {i} is lost: its worker process ended without sending its result")
                for fd, _ in poller.poll():
                    if fd == deal_fd:
                        try:
                            deal = deal[os.write(deal_fd, deal[:_DEAL_BYTES]):]
                        except BlockingIOError:
                            continue
                        except BrokenPipeError:
                            # every worker has ended
                            deal = deal[:0]
                        if not deal:
                            poller.unregister(deal_fd)
                            self.close(deal_fd)
                        continue
                    data = os.read(fd, 1 << 16)
                    if not data:
                        poller.unregister(fd)
                        running -= 1
                        continue
                    buf = frames[fd]
                    buf += data
                    while len(buf) >= _WORD:
                        end = _WORD + int.from_bytes(buf[:_WORD], "little")
                        if len(buf) < end:
                            break
                        j, ok, value = pickle.loads(buf[_WORD:end])
                        results[j] = ok, value
                        del buf[:end]
            ok, value = results.pop(i)
            if not ok:
                raise value
            yield value


def _send(out: int, i: int, ok: bool, value) -> None:
    """Send item i's result (ok) or exception to this worker's parent."""
    try:
        data = pickle.dumps((i, ok, value), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # a result or an exception that does not pickle
        data = pickle.dumps((i, False, pickle.PicklingError(f"item {i}: {exc!r}")))
    _write_all(out, len(data).to_bytes(_WORD, "little") + data)


def _take_dealt(fn, items, deal: int, out: int) -> None:
    """In a fork_map worker: call fn on the item of each index read from
    the deal pipe, and send its result, until the pipe is empty and
    closed."""
    while index := os.read(deal, _WORD):
        i = int.from_bytes(index, "little")
        try:
            result = True, fn(items[i])
        except BaseException as exc:  # raised in the parent, in item order
            result = False, exc
        _send(out, i, *result)


def _write_in_turn(fn, items, fd: int, mine, turn: int, next_turn: int, out: int) -> None:
    """In a fork_write worker: for each item index i in mine, make the
    bytes fn(items[i]), wait for the turn on `turn`, write the bytes to fd
    and pass the turn on to `next_turn`.  A worker whose call or write
    raises sends the exception and ends, which closes next_turn, and so the
    next worker reads no turn but the end of the pipe and ends too."""
    for i in mine:
        try:
            data = fn(items[i])
            if not os.read(turn, 1):
                return
            _write_all(fd, data)
        except BaseException as exc:  # raised in the parent, in item order
            _send(out, i, False, exc)
            return
        if i + 1 < len(items):
            try:
                os.write(next_turn, b"\1")
            except BrokenPipeError:
                # item i + 1 failed, and its worker has ended
                pass
        _send(out, i, True, None)
