import os
import pickle
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gkm import _pool

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    """Two forked workers whatever the machine, and a test that hangs fails
    after a minute instead."""
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)

    def hung(signum, frame):
        raise TimeoutError("the pool hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _ends_mid_item(i):
    if i == 3:
        os._exit(7)
    return b"%d;" % i


def test_a_worker_that_ends_mid_item_raises_naming_the_item(tmp_path):
    got = []
    with pytest.raises(_pool.BrokenPool, match="item 3 is lost"):
        for r in _pool.fork_map(_ends_mid_item, range(8)):
            got.append(r)
    assert got == [b"0;", b"1;", b"2;"]
    _no_child_left()
    out_path = tmp_path / "out"
    with open(out_path, "wb") as fh, pytest.raises(_pool.BrokenPool, match="item 3 is lost"):
        _pool.fork_write(fh, _ends_mid_item, range(8))
    assert out_path.read_bytes() == b"0;1;2;"
    _no_child_left()


def test_closing_a_fork_map_early_kills_and_reaps_every_worker():
    def slow(i):
        if i:
            time.sleep(30)
        return i

    start = time.monotonic()
    results = _pool.fork_map(slow, range(6))
    assert next(results) == 0
    results.close()
    assert time.monotonic() - start < 10
    _no_child_left()


def _fails_at_2_and_5(i):
    if i == 2:
        # item 5 fails first
        time.sleep(0.2)
        raise ValueError("item 2")
    if i == 5:
        raise ValueError("item 5")
    return b"%d;" % i


def test_exceptions_arrive_in_item_order(tmp_path):
    got = []
    with pytest.raises(ValueError, match="item 2"):
        for r in _pool.fork_map(_fails_at_2_and_5, range(8)):
            got.append(r)
    assert got == [b"0;", b"1;"]
    _no_child_left()
    out_path = tmp_path / "out"
    with open(out_path, "wb") as fh, pytest.raises(ValueError, match="item 2"):
        _pool.fork_write(fh, _fails_at_2_and_5, range(8))
    assert out_path.read_bytes() == b"0;1;"
    _no_child_left()


def test_results_larger_than_a_pipe_arrive_whole():
    # each comes back in many reads, the two workers' pieces interleaved
    got = list(_pool.fork_map(lambda i: bytes([i]) * (1 << 20) + b"%d" % i, range(5)))
    assert got == [bytes([i]) * (1 << 20) + b"%d" % i for i in range(5)]
    _no_child_left()


def test_a_result_that_does_not_pickle_raises_naming_its_item():
    with pytest.raises(pickle.PicklingError, match="item 1"):
        list(_pool.fork_map(lambda i: i if i != 1 else (lambda: i), range(4)))
    _no_child_left()


def test_fork_map_takes_as_many_items_as_one_atomic_pipe_write_deals():
    # 512 indices of 8 bytes are select.PIPE_BUF = 4096 bytes, written
    # before any worker forks
    assert _pool._workers(range(513)) == 2
    assert list(_pool.fork_map(lambda i: i * i, range(512))) == [i * i for i in range(512)]
    _no_child_left()
    with pytest.raises(ValueError, match="at most 512 items, got 513"):
        next(_pool.fork_map(lambda i: i, range(513)))
    _no_child_left()


def test_without_fork_the_calls_run_here_in_order(monkeypatch, tmp_path):
    # as on Windows, which has neither os.fork nor select.PIPE_BUF nor
    # select.poll; the serial loop has no limit on the item count
    monkeypatch.delattr(os, "fork")
    monkeypatch.delattr(select, "PIPE_BUF")
    monkeypatch.delattr(select, "poll")
    pid = os.getpid()
    assert list(_pool.fork_map(lambda i: (i, os.getpid()), range(513))) == [(i, pid) for i in range(513)]
    out_path = tmp_path / "out"
    with open(out_path, "wb") as fh:
        _pool.fork_write(fh, lambda i: b"%d;" % i, range(513))
    assert out_path.read_bytes() == b"".join(b"%d;" % i for i in range(513))
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_many_tiny_writes_leave_the_descriptor_count_flat(tmp_path):
    out_path = tmp_path / "out"
    want = b"".join(b"%d;" % i for i in range(1000))
    counts = []
    for _ in range(3):
        counts.append(len(os.listdir("/proc/self/fd")))
        with open(out_path, "wb") as fh:
            _pool.fork_write(fh, lambda i: b"%d;" % i, range(1000))
        assert out_path.read_bytes() == want
    counts.append(len(os.listdir("/proc/self/fd")))
    assert len(set(counts)) == 1
    _no_child_left()


_IMPORTS = """
import sys
from gkm import _pool
_pool.usable_cpus = lambda: 2
import gkm.cli, gkm.verify
from gkm import core, sampler
gkm.cli.CSV_CHUNK_ROWS = 1000
assert gkm.cli.main(["grid", "--a", "0.7,-0.4", "--n-points", "1500", "--out", sys.argv[1]]) == 0
assert gkm.verify.run_verify(("markov", "conjugate"))["pass"]
print(sorted(m for m in ("multiprocessing", "concurrent.futures", "numpy.polynomial") if m in sys.modules))
sampler.build_cdf(core.ParamSet(a=(0.5,)))
print("numpy.polynomial" in sys.modules)
"""


def test_the_parent_imports_no_process_pool_and_no_polynomial_package(tmp_path):
    # the pool needs neither multiprocessing nor concurrent.futures, and
    # numpy.polynomial waits for the first CDF table this process builds
    src = str(Path(_pool.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORTS, str(tmp_path / "grid.csv")], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout == "[]\nTrue\n"
    assert len((tmp_path / "grid.csv").read_text().splitlines()) == 1502


def _run_python(code: str, *args: str, blas_threads: str | None = "1") -> str:
    """The standard output of code run by a fresh interpreter that imports
    gkm from this tree, with OPENBLAS_NUM_THREADS set to blas_threads, or
    unset for None: gemv's bits depend on its thread count, which follows
    the CPUs the interpreter starts on."""
    src = str(Path(_pool.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True, timeout=120).stdout


# --- the U-series sum runs in the calling process

_SERIES_DIGEST = """
import hashlib, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from gkm import core
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
x = np.random.default_rng(0).uniform(-1.0, 1.0, 1_000_000)
print(hashlib.sha1(core.density_series(core.ParamSet(a=(0.7, -0.4, 0.2)), x)).hexdigest(), len(forks))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_long_series_sum_forks_nothing_and_has_one_set_of_bits():
    # 78 slices' worth of basis values at K = 80, summed by Clenshaw's
    # recurrence, which calls no BLAS routine
    pinned = _run_python(_SERIES_DIGEST, "pinned")
    assert pinned.split()[1] == "0"
    assert _run_python(_SERIES_DIGEST, "unpinned") == pinned
    assert _run_python(_SERIES_DIGEST, "unpinned", blas_threads=None) == pinned


def test_importing_gkm_leaves_the_pool_unloaded():
    # only the verify suites and the CLI's CSV writer fork
    assert _run_python("import sys, gkm; print('gkm._pool' in sys.modules)") == "False\n"
