import hashlib
import os
import pickle
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gkm import _pool, chebyshev, core

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


def _run_python(code: str, *args: str) -> str:
    """The standard output of code run by a fresh interpreter that imports
    gkm from this tree, with one BLAS thread: gemv's bits depend on its
    thread count, which follows the CPUs the interpreter starts on."""
    src = str(Path(_pool.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True, timeout=120).stdout


# --- a pool worker's own pool calls run serially

def _pool_calls_in_a_worker(kind, out_path):
    def no_fork():
        raise AssertionError("a pool worker forked")

    # this is a forked worker: the parent's os.fork is untouched
    os.fork = no_fork
    if kind == "series":
        x = np.random.default_rng(31).uniform(-1.0, 1.0, 1_000_000)
        return hashlib.sha1(core.density_series(core.ParamSet(a=(0.7, -0.4, 0.2)), x)).hexdigest()
    if kind == "map":
        return list(_pool.fork_map(lambda i: i * i, range(4)))
    with open(out_path, "wb") as fh:
        _pool.fork_write(fh, lambda i: b"%d;" % i, range(4))
    return "written"


def test_a_pool_worker_forks_no_pool_of_its_own(tmp_path):
    x = np.random.default_rng(31).uniform(-1.0, 1.0, 1_000_000)
    here = hashlib.sha1(core.density_series(core.ParamSet(a=(0.7, -0.4, 0.2)), x)).hexdigest()
    out_path = tmp_path / "out"
    calls = partial(_pool_calls_in_a_worker, out_path=out_path)
    assert list(_pool.fork_map(calls, ["series", "map", "write"])) == [here, [0, 1, 4, 9], "written"]
    assert out_path.read_bytes() == b"0;1;2;3;"
    _no_child_left()


# --- the U-series sum, split into spans of whole slices over forked workers

# (order K, shape of x) for each order: two slices, three slices and 7
# points, 10^6 points, and a 2-d x of three slices
def _series_cases():
    for K in (0, 80, 294):
        step = chebyshev.SERIES_BLOCK // (K + 1)
        for shape in ((2 * step,), (3 * step + 7,), (1_000_000,), (3, step)):
            yield K, shape


_SERIES_DIGESTS = """
import hashlib, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from gkm import _pool, chebyshev
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
if sys.argv[1] == "pinned":
    assert _pool.usable_cpus() == 1
else:
    # two workers whatever the number of CPUs, for every sum of two slices
    # or more, however short
    _pool.usable_cpus = lambda: 2
    chebyshev._SPLIT_TERMS = chebyshev._SPLIT_VALUES = 0
for K, shape in %s:
    c = np.random.default_rng(K).normal(size=K + 1)
    x = np.random.default_rng(K + 1).uniform(-1.0, 1.0, shape)
    print(hashlib.sha1(chebyshev.USeries(c)(x)).hexdigest())
    slices = -(-x.size // (chebyshev.SERIES_BLOCK // (K + 1)))
    assert len(forks) == (2 if sys.argv[1] == "unpinned" and slices > 1 else 0), (K, shape, forks)
    forks.clear()
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_split_series_sums_have_the_bits_of_one_cpu():
    code = _SERIES_DIGESTS % (list(_series_cases()),)
    pinned = _run_python(code, "pinned")
    assert len(pinned.split()) == 12
    assert _run_python(code, "unpinned") == pinned


def _split_here(monkeypatch, forks):
    """Two workers for any sum of two slices or more, in this process
    whatever its threads; each fork is appended to forks."""
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_pool, "_alone", lambda: True)


def test_a_span_that_raises_raises_in_the_caller_and_leaves_no_child(monkeypatch):
    c = np.random.default_rng(32).normal(size=81)
    step = chebyshev.SERIES_BLOCK // 81
    x = np.random.default_rng(33).uniform(-1.0, 1.0, 4 * step)
    x[-1] = 0.5  # a point of the second worker's span
    u_all = chebyshev.u_all

    def fails_on_the_last_slice(kmax, xs, out=None):
        if xs[-1] == 0.5:
            raise ValueError("the last slice failed")
        return u_all(kmax, xs, out)

    forks = []
    _split_here(monkeypatch, forks)
    monkeypatch.setattr(chebyshev, "_SPLIT_VALUES", 0)
    monkeypatch.setattr(chebyshev, "u_all", fails_on_the_last_slice)
    with pytest.raises(ValueError, match="the last slice failed"):
        chebyshev.USeries(c)(x)
    assert len(forks) == 2
    _no_child_left()


_SERIES_PEAK = """
import os, resource, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from gkm import _pool, core
if sys.argv[1] != "pinned":
    _pool.usable_cpus = lambda: 2
p = core.ParamSet(a=(0.7, -0.4, 0.2))
core.density_series(p, np.linspace(-1.0, 1.0, 30_000))
x = np.random.default_rng(34).uniform(-1.0, 1.0, 4_000_000)
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
core.density_series(p, x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, len(forks))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_the_split_sum_raises_no_peak_of_the_caller():
    # the caller holds the shared mapping and its private copy, where the
    # serial loop holds the sums and a slab; the workers' slabs are theirs
    pinned, pinned_forks = map(int, _run_python(_SERIES_PEAK, "pinned").split())
    unpinned, forks = map(int, _run_python(_SERIES_PEAK, "unpinned").split())
    assert (pinned_forks, forks) == (0, 2)
    assert unpinned <= pinned


# --- when the sum is split: long sums, in a process that runs alone

def test_only_a_sum_that_gains_by_it_is_split(monkeypatch):
    # at K = 80, the sums past the first 15 terms of each point reach 20
    # slices' worth of values at 317 751 points
    c = np.random.default_rng(35).normal(size=81)
    first = -(-chebyshev._SPLIT_VALUES // (81 - chebyshev._SPLIT_TERMS))
    assert first == 317_751
    x = np.random.default_rng(36).uniform(-1.0, 1.0, first)
    serial = {n: chebyshev.USeries(c)(x[:n]) for n in (first - 1, first)}
    forks = []
    _split_here(monkeypatch, forks)
    assert chebyshev.USeries(c)(x[:first - 1]).tobytes() == serial[first - 1].tobytes()
    assert forks == []
    assert chebyshev.USeries(c)(x).tobytes() == serial[first].tobytes()
    assert len(forks) == 2
    _no_child_left()
    # a sum of few terms stays serial at any length
    forks.clear()
    chebyshev.USeries(c[:chebyshev._SPLIT_TERMS])(np.zeros(4_000_000))
    assert forks == []


_NOT_ALONE = """
import hashlib, multiprocessing, os, threading
import numpy as np
from gkm import _pool, core
_pool.usable_cpus = lambda: 2
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
x = np.random.default_rng(37).uniform(-1.0, 1.0, 1_000_000)
p = core.ParamSet(a=(0.7, -0.4, 0.2))


def series():
    forks.clear()
    digest = hashlib.sha1(core.density_series(p, x)).hexdigest()
    return digest, len(forks)


def in_a_child(conn):
    conn.send(series())


alone = series()
parent, child = multiprocessing.get_context("fork").Pipe()
proc = multiprocessing.get_context("fork").Process(target=in_a_child, args=(child,))
proc.start()
from_child = parent.recv()
proc.join()
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
threaded = series()
stop.set()
thread.join()
print(alone[1], from_child[1], threaded[1], alone[0] == from_child[0] == threaded[0])
"""


def test_a_process_not_alone_sums_serially():
    # one BLAS thread: the interpreter itself runs one thread; the sum
    # splits there, and not in a multiprocessing child or beside a thread
    assert _run_python(_NOT_ALONE) == "2 0 0 True\n"
