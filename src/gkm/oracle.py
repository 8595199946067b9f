"""Independent quadrature used to validate every closed form in the package.

One rule, _periodic_trapezoid, does every integral, in dim = 1, 2 or 3
variables.  The substitution x_i = cos(theta_i) removes the sqrt(1 - x^2)
endpoint singularities: for an integrand smooth on [-1, 1]^dim that carries
them, the integrand in theta is smooth, even and 2pi-periodic in each angle,
and there the tensor trapezoid rule over full periods converges geometrically
(Trefethen and Weideman, SIAM Review 56, 2014).  The rule runs on two grids,
each shifted in every axis by a fixed offset drawn from Philox(MC_SEED), and
doubles both until they agree with each other and with the level before.
Each shifted grid is a shifted lattice rule (Sloan and Joe, Lattice Methods
for Multiple Integration, 1994), so a high mode that one grid aliases to a
constant shows up as a disagreement.

In one variable the levels are the same for every integrand: the first
level's points and those each doubling adds depend on n alone.  Their
cos(theta), sin(theta)^2 and |sin(theta)| are computed once per level, up
to n = _KEPT_N (the verify suites stay within it), kept read-only and handed
to each integrand's F; above _KEPT_N a level is computed afresh on each
call.  The integrand g itself gets a copy of cos(theta), so one that writes
into its argument cannot change a later integral.  integrate_weighted also
takes a family of integrands over one measure, one row each, and sweeps the
levels once for all of them, each row accepted on its own.

Tolerances: every integrator takes an absolute tol with 0 <= tol < inf and
refuses any other (NaN, negative, infinite) with InvalidParameters before it
evaluates its integrand.  tol = 0 runs until the BUDGET is spent and then
raises NonConvergence, as does an integrand whose sums on a level are not
finite, at that level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .chebyshev import _index, _real_or_nan
from .errors import InvalidParameters, NonConvergence

BUDGET = 10_000_000  # evaluations per integral, in every dimension
MC_SEED = 20150601  # fixed so acceptance runs are reproducible
_BLOCK = 1 << 13  # points per call of F in 2D/3D: 64 KiB arrays, below glibc's mmap threshold
_KEPT_N = 512  # 1D levels kept up to this n: 2048 points in all, 48 KiB for their three arrays


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@cache
def _shifts(dim: int) -> np.ndarray:
    """The fixed offsets in theta of the two trapezoid grids, one row per
    grid and one column per axis, drawn once per dim, on first use, so that
    `import gkm` does not load numpy.random."""
    return 2.0 * np.pi * np.random.Generator(np.random.Philox(MC_SEED)).random((2, dim))


@cache
def _halves(dim: int) -> np.ndarray:
    """The offsets, in steps, of the points a doubling adds to a grid, one
    column each: the corners of the unit cell but the origin, halved."""
    return 0.5 * np.indices((2,) * dim).reshape(dim, -1)[:, 1:]


def _check_tol(tol: float) -> None:
    """InvalidParameters unless tol is a real with 0 <= tol < inf; written
    as "not (...)" so that NaN, and so text and None, are rejected too."""
    if not (0.0 <= _real_or_nan(tol) < math.inf):
        raise InvalidParameters(f"tol must be non-negative and finite, got {tol}")


def _angles(dim: int, n: int, doubling: bool) -> np.ndarray:
    """angles[i, g, o, j]: axis i of grid g at offset o, point j, of the
    first level's n-point grids, or of the points a doubling of them adds."""
    offsets = _halves(dim) if doubling else np.zeros((dim, 1))
    return _shifts(dim).T[:, :, None, None] + (2.0 * np.pi / n) * (np.arange(n) + offsets[:, None, :, None])


class _Nodes(NamedTuple):
    """The points theta of a 1D level, both grids in one flat array, as
    cos(theta), sin(theta)^2 and |sin(theta)|, read-only."""

    cos: np.ndarray
    sin2: np.ndarray
    abs_sin: np.ndarray


def _nodes(n: int, doubling: bool) -> _Nodes:
    theta = _angles(1, n, doubling).ravel()
    sin = np.sin(theta)
    nodes = _Nodes(np.cos(theta), sin ** 2, np.abs(sin))
    for a in nodes:
        a.flags.writeable = False
    return nodes


_kept_nodes = cache(_nodes)


def _periodic_trapezoid(F, tol: float, dim: int = 1) -> tuple:
    """2^-dim times the integral over one period in each of its dim angles of
    an even, 2pi-periodic F, i.e. its integral over [0, pi]^dim, by the tensor
    trapezoid rule on the grids _shifts(dim) + 2 pi j / N, j in {0..N-1}^dim,
    for N = 64 >> dim, 2 N, ... (each doubling adds the _halves(dim) offsets
    of the grid before), within BUDGET evaluations.  Accepted when the two
    grids agree and the last two levels agree, each to tol.

    In 2D and 3D F takes one array of angles per axis, broadcastable against
    each other; in 1D it takes the level's _Nodes and returns either one value
    per point or a family of integrands, one row of values per member.  One
    IntegrationResult per row, in a tuple: each row is accepted at the first
    level where it meets the test on its own, so its value, estimate and
    evaluations are those of integrating that row alone; the sweep goes on
    while any row is pending.  NonConvergence at the first level whose sums
    are not finite, naming the row.
    """
    _check_tol(tol)

    def sums(doubling, n):
        """Each row's pair of grid sums, as Python floats."""
        if dim == 1:
            nodes = (_kept_nodes if n <= _KEPT_N else _nodes)(n, doubling)
            # along a contiguous last axis, with the bits of one row alone
            s = (np.pi / n) * F(nodes).reshape(-1, 2, n).sum(axis=2)
        else:
            angles = _angles(dim, n, doubling)
            rows = max(1, _BLOCK // (2 * n ** (dim - 1)))
            total = 0.0
            for o in range(angles.shape[2]):
                axes = [a[:, o].reshape((2,) + (1,) * i + (n,) + (1,) * (dim - 1 - i)) for i, a in enumerate(angles)]
                for lo in range(0, n, rows):
                    total = total + F(axes[0][:, lo:lo + rows], *axes[1:]).reshape(1, 2, -1).sum(axis=2)
            s = (np.pi / n) ** dim * total
        s = s.tolist()
        for i, pair in enumerate(s):
            if not all(map(math.isfinite, pair)):
                raise NonConvergence(
                    f"the integrand is not finite on the grids of {n} points per axis (row {i} of {len(s)})"
                )
        return s

    halves = _halves(dim)
    n = 64 >> dim
    t = sums(False, n)
    evals = 2 * n ** dim
    results = [None] * len(t)
    while True:
        added = 2 * halves.shape[1] * n ** dim
        if evals + added > BUDGET:
            raise NonConvergence(f"evaluation budget {BUDGET} exhausted")
        s = sums(True, n)
        evals += added
        n *= 2
        new = []
        for i, ((t0, t1), (s0, s1)) in enumerate(zip(t, s)):
            g0, g1 = 0.5 ** dim * (t0 + s0), 0.5 ** dim * (t1 + s1)
            # + 0.0 has the bits of np.sum, which turns -0.0 + -0.0 into +0.0
            total = g0 + g1 + 0.0
            err = max(abs(g0 - g1), 0.5 * abs(total - (t0 + t1 + 0.0)))
            if results[i] is None and err <= tol:
                results[i] = IntegrationResult(0.5 * total, err, evals)
            new.append((g0, g1))
        if None not in results:
            return tuple(results)
        t = new


def _values(v, shape: tuple) -> np.ndarray:
    """An integrand's values as a real array of the given shape, that of its
    points or (rows, points); InvalidParameters for any other result, before
    the rule computes with it."""
    v = np.asarray(v)
    if v.shape != shape or v.dtype.kind not in "biuf":
        raise InvalidParameters(
            f"the integrand must return reals of shape {shape}, got {v.dtype} of shape {v.shape}"
        )
    return v


def integrate_weighted(g, tol: float = 1e-11, rows: int | None = None):
    """integral_{-1}^{1} (2/pi) sqrt(1-x^2) g(x) dx.

    g must accept numpy arrays and be smooth on [-1, 1].  A jump of g at
    x = cos(theta_c) leaves an O(1/N) error that depends only on theta_c and
    the grid spacing, so both grids share it and the error estimate misses
    it, except at x = 0, where the two jumps at +-theta_c cancel.

    g(x) returns an array of x's shape, and the result is one
    IntegrationResult.  With rows = r >= 1, g integrates a family in one
    sweep: g(x) returns r rows of values, shape (r, x.size), so that factors
    the members share are evaluated once per level, and the result is a
    tuple of r IntegrationResults, each with the bits of integrating its
    row alone.  InvalidParameters for values of any other shape or a
    non-real dtype.
    """
    shape = () if rows is None else (_index(rows, "rows"),)
    if shape == (0,):
        raise InvalidParameters("rows must be positive, got 0")

    def F(v):
        x = v.cos.copy()
        return (2.0 / np.pi) * _values(g(x), shape + x.shape) * v.sin2

    results = _periodic_trapezoid(F, tol)
    return results if rows is not None else results[0]


def _over_cube(h, dim: int, tol: float) -> IntegrationResult:
    """integral over [-1, 1]^dim of h(x_1, ..., x_dim), dim = 2 or 3, as
    2^-dim times the full-period integral of h(cos theta_1, ...)
    prod_i |sin theta_i|; h's values are checked as _values checks them,
    against the broadcast shape of its arguments."""

    def F(*theta):
        shape = np.broadcast_shapes(*(t.shape for t in theta))
        return _values(h(*(np.cos(t) for t in theta)), shape) * math.prod(np.abs(np.sin(t)) for t in theta)

    return _periodic_trapezoid(F, tol, dim)[0]


def integrate_plain(g, tol: float = 1e-11) -> IntegrationResult:
    """integral_{-1}^{1} g(x) dx through the same cos substitution, as half
    the full-period integral of the even extension g(cos theta) |sin theta|.

    g must accept numpy arrays.  The extension has a kink at theta = 0 and pi
    unless g carries its own sqrt(1-x^2) factor, g(x) = sqrt(1-x^2) h(x) with
    h smooth; then it is sin(theta)^2 h(cos theta), smooth and periodic, and
    the rule converges geometrically.
    """

    def F(v):
        x = v.cos.copy()
        return _values(g(x), x.shape) * v.abs_sin

    return _periodic_trapezoid(F, tol)[0]


def integrate_2d(h, tol: float = 1e-9) -> IntegrationResult:
    """integral over [-1,1]^2 of h(x, y), h taking broadcastable arrays and
    returning reals of their broadcast shape (InvalidParameters otherwise).

    As in integrate_plain, the rule converges geometrically when h is
    sqrt(1-x^2) sqrt(1-y^2) times a smooth function.  A jump of h can go
    undetected, its error the same on both grids and at both levels.
    """
    return _over_cube(h, 2, tol)


def integrate_3d(h, tol: float = 1e-7) -> IntegrationResult:
    """integral over [-1,1]^3 of h(x, y, z), as integrate_2d."""
    return _over_cube(h, 3, tol)


def normalizer_numeric(p) -> float:
    """1 / integral of the unnormalized density (the closed constant A set to 1),
    for either parameter-set flavor."""
    return 1.0 / integrate_weighted(p._g).value
