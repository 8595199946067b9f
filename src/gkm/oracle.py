"""Independent quadrature used to validate every closed form in the package.

All 1D integrals go through the substitution x = cos(theta), which removes
the sqrt(1 - x^2) endpoint singularity.  For a g that is smooth (analytic)
on [-1, 1], the integrand in theta is then a smooth, even, 2pi-periodic
function, so its integral over [0, pi] is half the one over a full period,
and there the plain trapezoid rule converges geometrically (Trefethen and
Weideman, SIAM Review 56, 2014).  The rule runs on two grids, each shifted
by a fixed offset drawn from Philox(MC_SEED), and doubles both until they
agree with each other and with the level before: a high mode that one grid
aliases to a constant shows up as a disagreement.  The 2D/3D routines
tensorize the same substitution with Simpson panels.  The 3D one is
confirmed by a rank-1 Korobov lattice rule (Sloan and Joe, Lattice Methods
for Multiple Integration, 1994) on the periodized integrand: after
x_i = cos(2 pi u_i) it is smooth and 1-periodic in each u_i, where lattice
rules converge far faster than Monte Carlo.  Eight random shifts of the
lattice, drawn from Philox(MC_SEED), give independent estimates whose spread
is the error bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import EstimatorDisagreement, NonConvergence

BUDGET_1D = 10_000_000
BUDGET_CELLS_3D = 100_000_000
MC_SEED = 20150601  # fixed so acceptance runs are reproducible
# the lattice confirming a 3D tensor estimate: 8191 points with the Korobov
# generator (1, 739, 739**2 mod 8191), each under 8 random shifts
_LATTICE_POINTS = 8191
_LATTICE_GENERATOR = (1, 739, 739 * 739 % _LATTICE_POINTS)
_LATTICE_SHIFTS = 8


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@cache
def _shifts() -> np.ndarray:
    """The two fixed offsets of the trapezoid grids in theta, drawn once, on
    first use, so that `import gkm` does not load numpy.random."""
    return 2.0 * np.pi * np.random.Generator(np.random.Philox(MC_SEED)).random(2)


def _periodic_trapezoid(F, tol: float) -> IntegrationResult:
    """Half the integral over one period of an even, 2pi-periodic F, i.e. its
    integral over [0, pi], by the trapezoid rule on the grids _shifts() + 2 pi j / N
    for N = 32, 64, ... (each doubling adds the midpoints), within BUDGET_1D
    evaluations.  Accepted when the two grids agree and the last two levels
    agree, each to tol."""

    def sums(offset, n):
        theta = _shifts()[:, None] + (2.0 * np.pi / n) * (np.arange(n) + offset)
        return (np.pi / n) * F(theta.ravel()).reshape(2, n).sum(axis=1)

    n = 32
    t = sums(0.0, n)
    evals = 2 * n
    while True:
        if evals + 2 * n > BUDGET_1D:
            raise NonConvergence(f"evaluation budget {BUDGET_1D} exhausted")
        new = 0.5 * (t + sums(0.5, n))
        evals += 2 * n
        n *= 2
        err = max(abs(new[0] - new[1]), 0.5 * abs(new.sum() - t.sum()))
        if err <= tol:
            return IntegrationResult(float(0.5 * new.sum()), float(err), evals)
        t = new


def integrate_weighted(g, tol: float = 1e-11) -> IntegrationResult:
    """integral_{-1}^{1} (2/pi) sqrt(1-x^2) g(x) dx.

    g must accept numpy arrays and be smooth on [-1, 1].  A jump of g at
    x = cos(theta_c) leaves an O(1/N) error that depends only on theta_c and
    the grid spacing, so both grids share it and the error estimate misses
    it, except at x = 0, where the two jumps at +-theta_c cancel.
    """

    def F(theta):
        return (2.0 / np.pi) * g(np.cos(theta)) * np.sin(theta) ** 2

    return _periodic_trapezoid(F, tol)


def integrate_plain(g, tol: float = 1e-11) -> IntegrationResult:
    """integral_{-1}^{1} g(x) dx through the same cos substitution, as half
    the full-period integral of the even extension g(cos theta) |sin theta|.

    g must accept numpy arrays.  The extension has a kink at theta = 0 and pi
    unless g carries its own sqrt(1-x^2) factor, g(x) = sqrt(1-x^2) h(x) with
    h smooth; then it is sin(theta)^2 h(cos theta), smooth and periodic, and
    the rule converges geometrically.
    """

    def F(theta):
        return g(np.cos(theta)) * np.abs(np.sin(theta))

    return _periodic_trapezoid(F, tol)


def unnormalized_factor(p):
    """The factor g(x) of a density A g(x) (2/pi) sqrt(1 - x^2) at scale 1:
    1/prod_j (1 + a_j^2 - 2 a_j x), or 1/prod_i w(x, y_i, rho_i).

    Accepts either parameter-set flavor: real a-vectors (attribute `a`) or
    conjugate pairs (attributes `rho`, `y`).
    """
    if hasattr(p, "rho"):
        # imported here because conjugate imports this module
        from .conjugate import w_eval

        rho = np.asarray(p.rho, dtype=float)
        y = np.asarray(p.y, dtype=float)

        def g(x):
            r = np.ones_like(x)
            for ri, yi in zip(rho, y):
                r = r / w_eval(x, yi, ri)
            return r

    else:
        a = np.asarray(p.a, dtype=float)

        def g(x):
            r = np.ones_like(x)
            for ai in a:
                r = r / (1.0 + ai * ai - 2.0 * ai * x)
            return r

    return g


def normalizer_numeric(p) -> float:
    """1 / integral of the unnormalized density (the closed constant A set to 1),
    for either parameter-set flavor."""
    return 1.0 / integrate_weighted(unnormalized_factor(p)).value


def _panels(n: int):
    """cos(theta), sin(theta) and the Simpson weights of n panels on [0, pi]."""
    theta = np.linspace(0.0, np.pi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.cos(theta), np.sin(theta), w / 3.0 * (np.pi / n)


def _simpson_2d(h, x, s, w) -> float:
    vals = h(x[:, None], x[None, :]) * s[:, None] * s[None, :]
    return float(w @ vals @ w)


def _refine(rule, dim: int, tol: float, n_max: int) -> IntegrationResult:
    """Double the panel count of `rule(n)` (a tensor rule on (n + 1)**dim
    points) from 16 until the Richardson difference is below tol."""
    n = 16
    prev = rule(n)
    evals = (n + 1) ** dim
    while True:
        n *= 2
        cur = rule(n)
        evals += (n + 1) ** dim
        err = abs(cur - prev) / 15.0
        if err <= tol:
            return IntegrationResult(value=cur, abs_error_estimate=err, evaluations=evals)
        if (2 * n + 1) ** dim > BUDGET_CELLS_3D or n > n_max:
            raise NonConvergence(f"{dim}D panel refinement exhausted before tolerance")
        prev = cur


def integrate_2d(h, tol: float = 1e-9) -> IntegrationResult:
    """integral over [-1,1]^2 of h(x, y), by tensorized cos substitution with
    panel doubling until the Richardson difference is below tol."""
    return _refine(lambda n: _simpson_2d(h, *_panels(n)), 2, tol, 8192)


def _tensor_simpson_3d(h, npanels: int) -> float:
    x, s, w = _panels(npanels)
    acc = 0.0
    # slab at a time along the first axis to bound memory, on one grid
    for i in range(npanels + 1):
        acc += w[i] * s[i] * _simpson_2d(lambda y, z: h(x[i], y, z), x, s, w)
    return acc


@cache
def _lattice():
    """The nodes x, y, z in [-1, 1] of every shifted lattice point, shift
    after shift, and the Jacobian pi^3 |prod_i sin(2 pi u_i)| of the map
    x_i = cos(2 pi u_i) from [0, 1)^3 (which covers [-1, 1]^3 twice over in
    each axis), built once, on first use, and read-only."""
    n = _LATTICE_POINTS
    k = np.arange(n)[:, None] * np.array(_LATTICE_GENERATOR) % n
    shifts = np.random.Generator(np.random.Philox(MC_SEED)).random((_LATTICE_SHIFTS, 1, 3))
    theta = 2.0 * np.pi * ((k / n + shifts) % 1.0)
    jac = np.pi ** 3 * np.abs(np.prod(np.sin(theta), axis=-1))
    nodes = [np.cos(theta[..., i]).ravel() for i in range(3)] + [jac.ravel()]
    for a in nodes:
        a.flags.writeable = False
    return nodes


def integrate_3d(h, tol: float = 1e-7) -> IntegrationResult:
    """integral over [-1,1]^3 of h(x, y, z).

    Tensor Simpson under the cos substitution, refined by doubling, then
    confirmed by the shifted lattice rule of _lattice(), all of whose points
    go to h in one call; raises if the two estimators disagree beyond
    combined error bars (three standard errors of the mean of the shifts,
    the tensor's error estimate and tol).  The value and error estimate
    returned are the tensor's.
    """
    t = _refine(lambda n: _tensor_simpson_3d(h, n), 3, tol, 512)

    x, y, z, jac = _lattice()
    batches = (h(x, y, z) * jac).reshape(_LATTICE_SHIFTS, -1).mean(axis=1)
    mc = float(batches.mean())
    mc_sigma = float(batches.std(ddof=1) / np.sqrt(_LATTICE_SHIFTS))
    if abs(t.value - mc) > 3.0 * mc_sigma + t.abs_error_estimate + tol:
        raise EstimatorDisagreement(
            f"tensor {t.value} vs quasi-MC {mc} (sigma {mc_sigma}, tensor err {t.abs_error_estimate})"
        )
    return IntegrationResult(t.value, t.abs_error_estimate, t.evaluations + jac.size)
