"""Seeded inputs of the three workloads, as plain data.

Only numpy is used here, so the parent process can build the same inputs as
the worker and compute the mpmath references without importing gkm.  The
make-up of every workload (how many sets of which size) is fixed; the seed
moves only the values, so the cost of a round does not depend on it.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("verify_all", "closed_forms", "bulk_arrays")

# verify_all: parameter sets whose A, moments and B the run compares with mpmath
VERIFY_SETS = ((0.5,), (0.3, -0.6), (0.2, -0.5, 0.7, 0.9), (-0.8, -0.4, 0.1, 0.35, 0.6, 0.85, 0.95))

# closed_forms
N_MAX = 10
SETS_PER_N = 5  # the first of each n is symmetric in a
AMAX = 0.95
MIN_GAP = 0.05
MOMENT_K = 12
B_K = 20
P_M = 6
INNER_PAIRS = ((0, 0), (1, 2), (3, 5))
CONJ_PER_K = 3
# Coincident parameters: the closed forms refuse them today.  Fixed, not seeded,
# so the share of failed operations is the same in every run.
COINCIDENT = ({"a": (0.3, 0.3), "c": 1.5, "x": 0.25},)
CHECKED_N = (1, 3, 6, 8, 10)  # one seeded set of each of these n is compared with mpmath

# bulk_arrays
BULK_POINTS = 1_000_000
BULK_SETS = ((3, 0.7), (1, 0.5), (5, 0.3))  # (n, max |a_j|); 0.7 gives series order K = 80
BULK_CHECK_POINTS = 64
CDF_POINTS = (-0.9, -0.6, -0.3, -0.1, 0.0, 0.1, 0.3, 0.6, 0.9)
WARMUP_POINTS = 4096
# `gkm sample` reports a KS test at the 1% level, which a correct sampler fails
# on 1% of seeds; a fixed seed makes that check the same in every run.
CLI_SAMPLE_SEED = 20150713


def _spaced(rng, n: int, lo: float, hi: float, gap: float) -> tuple:
    """n values in [lo, hi], pairwise at least gap apart, in random order."""
    if n == 0:
        return ()
    u = np.sort(rng.uniform(0.0, (hi - lo) - (n - 1) * gap, n))
    v = lo + u + gap * np.arange(n)
    rng.shuffle(v)
    return tuple(float(t) for t in v)


def _symmetric(rng, n: int) -> tuple:
    """a = (b, -b) for n // 2 spaced magnitudes b, plus 0 when n is odd."""
    b = _spaced(rng, n // 2, MIN_GAP, AMAX, MIN_GAP)
    a = b + tuple(-t for t in b) + ((0.0,) if n % 2 else ())
    return tuple(a[i] for i in rng.permutation(len(a)))


def closed_forms(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    real = []
    for n in range(N_MAX + 1):
        for i in range(SETS_PER_N):
            sym = i == 0
            a = _symmetric(rng, n) if sym else _spaced(rng, n, -AMAX, AMAX, MIN_GAP)
            real.append({
                "a": a,
                "c": float(rng.uniform(0.5, 3.0)),
                "x": float(rng.uniform(-0.99, 0.99)),
                "symmetric": sym,
            })
    checked = [n * SETS_PER_N + int(rng.integers(0, SETS_PER_N)) for n in CHECKED_N]
    for s in COINCIDENT:
        checked.append(len(real))
        real.append({"a": s["a"], "c": s["c"], "x": s["x"], "symmetric": False})
    conj = []
    for k in (1, 2, 3):
        for _ in range(CONJ_PER_K):
            conj.append({
                "rho": tuple(float(t) for t in rng.uniform(-0.8, 0.8, k)),
                "y": tuple(float(t) for t in rng.uniform(-1.0, 1.0, k)),
                "x": float(rng.uniform(-0.99, 0.99)),
            })
    # the CLI commands run on checked sets, so their outputs meet the references too
    n3 = checked[CHECKED_N.index(3)]
    cli = {
        "eval": n3,
        "moments": n3,
        "poly": n3,
        "genfun": checked[CHECKED_N.index(6)],
        "moments_coincident": len(real) - len(COINCIDENT),
        "conj_eval": CONJ_PER_K,
        "eval_x": tuple(float(t) for t in rng.uniform(-0.99, 0.99, 3)),
    }
    checked_conj = [0, CONJ_PER_K, 2 * CONJ_PER_K]  # the first set of each k
    return {"real": real, "conj": conj, "checked": checked, "checked_conj": checked_conj, "cli": cli}


def bulk_arrays(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    sets = []
    for i, (n, amax) in enumerate(BULK_SETS):
        a = np.asarray(_spaced(rng, n, -amax, amax, MIN_GAP))
        a = a * (amax / np.max(np.abs(a)))  # scale so that max |a_j| is exactly amax
        sets.append({"a": tuple(float(t) for t in a), "sample_seed": int(rng.integers(0, 2**31))})
    return {
        "points": BULK_POINTS,
        "sets": sets,
        "check_idx": sorted(int(t) for t in rng.choice(BULK_POINTS, BULK_CHECK_POINTS, replace=False)),
        "grid_check_rows": sorted(int(t) for t in rng.choice(BULK_POINTS, BULK_CHECK_POINTS, replace=False)),
        "points_seed": [seed, 3],
    }


def bulk_points(inp: dict, count: int = BULK_POINTS) -> np.ndarray:
    """The evaluation points of bulk_arrays, uniform on [-1, 1]."""
    return np.random.default_rng(inp["points_seed"]).uniform(-1.0, 1.0, count)


def cheb_grid(npts: int) -> np.ndarray:
    """The points of `gkm grid` at c = 1, computed here from the documented
    Chebyshev-extrema formula x_i = -cos(pi i / (npts - 1))."""
    return np.cos(np.pi * (1.0 - np.arange(npts) / (npts - 1)))


def make(workload: str, seed: int) -> dict:
    if workload == "verify_all":
        return {"sets": VERIFY_SETS}
    if workload == "closed_forms":
        return closed_forms(seed)
    if workload == "bulk_arrays":
        return bulk_arrays(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
