"""Reference loops: fixed pieces of work whose duration is the benchmark's time
unit, "ref".

The host's speed drifts by tens of percent within seconds, and this machine
has no hardware counters to count work instead.  Timing a fixed loop in the
same process right before and after each segment of a round, and dividing
by it, cancels most of that drift.  It cancels best when the loop slows down
the way the workload does, so each workload has its own mix of these
kernels (none of them calls gkm, so a change to gkm does not move the unit):

- interp: pure interpreter work (calls, tuples, float arithmetic) with a
  small working set, like CSV formatting and the Python side of gkm;
- np_small: numpy calls on 0-d and tiny arrays, where call overhead
  dominates, like gkm's scalar closed forms;
- np_medium: numpy on arrays of a few hundred elements with masks and
  concatenation, like the adaptive quadrature in gkm.oracle;
- np_stream: passes over fresh 8 MB arrays, bound by memory bandwidth and
  page faults, like density_series and sampling on 10^6 points.

Measured on a 2-vCPU virtual machine (README.md), the scalar closed forms
tracked interp and np_small within about 4% over 3 s windows, while the
10^6-point kernels tracked only np_stream; no single kernel served both.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

STREAM_N = 1 << 20


def _step(x: float, y: float):
    return x * 0.5 + y, (x - y) * 0.25


def interp(n: int = 4000) -> float:
    acc = 0.0
    tot = 0.0
    for i in range(n):
        a, b = _step(float(i), acc)
        acc = (a - b) % 97.0
        tot += acc
    return tot


def np_small(n: int = 150) -> float:
    a = np.asarray((0.3, -0.2, 0.5, 0.7))
    tot = 0.0
    for i in range(n):
        x = np.asarray(i / n - 0.5, dtype=float)
        r = np.sqrt(np.maximum(1.0 - x * x, 0.0))
        d = np.ones(len(a))
        for j in range(len(a)):
            d[j] = (1.0 + a[j] * a[j]) - 2.0 * a[j] * x
        tot += float(r / np.prod(d)) + float(np.sum(a ** 3 / d))
    return tot


def np_medium(n: int = 40) -> float:
    x = np.linspace(0.0, np.pi, 513)
    tot = 0.0
    for i in range(n):
        a, b = x[:-1], x[1:]
        m = 0.5 * (a + b)
        f = np.sin(m) ** 2 * np.cos(m * (i + 1))
        ok = np.abs(f) > 0.25
        tot += float(np.sum(f[ok])) + np.concatenate([a[ok], m[~ok]]).size
    return tot


def np_stream(n: int = STREAM_N) -> float:
    x = np.linspace(-1.0, 1.0, n)
    prev = np.ones(n)
    cur = 2.0 * x
    for _ in range(3):
        prev, cur = cur, 2.0 * x * cur - prev
    return float(cur[n // 3])


# kernel repetitions per pass of each workload's reference loop, and passes
# per measurement (their median is the measurement); verify_all has only two
# measurements per round, so each takes three passes
PASSES = {"verify_all": 3, "closed_forms": 4, "bulk_arrays": 1}
MIXES = {
    # verify_all slows down less than the interpreter-bound kernels and more
    # than np_stream when the host is busy; about 70% / 30% of the time
    # tracked it best (README.md).  Its stream part uses 2 MB arrays, which
    # stay below the workload's own peak resident set.
    "verify_all": (("interp", 16), ("np_small", 6), ("np_medium", 12), ("np_stream_2mb", 4)),
    "closed_forms": (("interp", 1), ("np_small", 1)),
    # bulk_arrays spends about 55% of a round formatting CSV in the
    # interpreter and 45% in 10^6-point numpy kernels; the loop is split alike
    "bulk_arrays": (("interp", 30), ("np_stream", 1)),
}
_KERNELS = {
    "interp": interp,
    "np_small": np_small,
    "np_medium": np_medium,
    "np_stream": np_stream,
    "np_stream_2mb": lambda: np_stream(STREAM_N // 4),
}


class RefLoop:
    def __init__(self, workload: str):
        self.parts = [(_KERNELS[name], count) for name, count in MIXES[workload]]
        self.passes = PASSES[workload]

    def once(self) -> None:
        for fn, count in self.parts:
            for _ in range(count):
                fn()

    def measure(self) -> float:
        """Median duration in seconds of one pass, over consecutive passes."""
        times = []
        for _ in range(self.passes):
            t0 = time.perf_counter()
            self.once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
