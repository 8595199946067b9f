"""Independent quadrature used to validate every closed form in the package.

All 1D integrals against the semicircle weight go through the substitution
x = cos(theta), which removes the sqrt(1 - x^2) endpoint singularity and
leaves a smooth periodic integrand on [0, pi]; adaptive Simpson bisection
with Richardson error control then converges quickly.  The 2D/3D routines
tensorize the same substitution; the 3D one is additionally confirmed by a
seeded quasi-Monte-Carlo estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimatorDisagreement, NonConvergence

BUDGET_1D = 10_000_000
BUDGET_CELLS_3D = 100_000_000
MC_POINTS = 1 << 16  # quasi-MC points confirming a 3D tensor estimate
MC_SEED = 20150601  # fixed so acceptance runs are reproducible


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def _adaptive_simpson(F, tol: float) -> IntegrationResult:
    """Vectorized adaptive Simpson on [0, pi] within BUDGET_1D evaluations:
    all active intervals are bisected in one batched call per sweep; local
    acceptance at tol * (width / pi)."""
    n0 = 8
    edges = np.linspace(0.0, np.pi, n0 + 1)
    a = edges[:-1]
    b = edges[1:]
    m = 0.5 * (a + b)
    fa = F(a)
    fb = F(b)
    fm = F(m)
    evals = 3 * n0
    S = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    acc_val = 0.0
    acc_err = 0.0
    while a.size:
        if evals > BUDGET_1D:
            raise NonConvergence(f"evaluation budget {BUDGET_1D} exhausted")
        ml = 0.5 * (a + m)
        mr = 0.5 * (m + b)
        fml = F(ml)
        fmr = F(mr)
        evals += 2 * a.size
        h = b - a
        Sl = h / 12.0 * (fa + 4.0 * fml + fm)
        Sr = h / 12.0 * (fm + 4.0 * fmr + fb)
        diff = Sl + Sr - S
        err = np.abs(diff) / 15.0
        # floor at roundoff of the local contributions so refinement terminates
        ok = (
            (err <= tol * (h / np.pi))
            | (err <= 8.0 * np.finfo(float).eps * (np.abs(Sl) + np.abs(Sr)))
            | (h <= np.pi * 2.0 ** -42)
        )
        acc_val += float(np.sum(Sl[ok] + Sr[ok] + diff[ok] / 15.0))
        acc_err += float(np.sum(err[ok]))
        bad = ~ok
        a, b, m, fa, fb, fm, S = (
            np.concatenate([a[bad], m[bad]]),
            np.concatenate([m[bad], b[bad]]),
            np.concatenate([ml[bad], mr[bad]]),
            np.concatenate([fa[bad], fm[bad]]),
            np.concatenate([fm[bad], fb[bad]]),
            np.concatenate([fml[bad], fmr[bad]]),
            np.concatenate([Sl[bad], Sr[bad]]),
        )
    return IntegrationResult(value=acc_val, abs_error_estimate=acc_err, evaluations=evals)


def integrate_weighted(g, tol: float = 1e-11) -> IntegrationResult:
    """integral_{-1}^{1} (2/pi) sqrt(1-x^2) g(x) dx.

    g must accept numpy arrays.
    """

    def F(theta):
        return (2.0 / np.pi) * g(np.cos(theta)) * np.sin(theta) ** 2

    return _adaptive_simpson(F, tol)


def integrate_plain(g, tol: float = 1e-11) -> IntegrationResult:
    """integral_{-1}^{1} g(x) dx through the same cos substitution.

    Intended for integrands that carry their own sqrt(1-x^2) factor, so the
    transformed integrand g(cos theta) sin(theta) is still smooth.
    """

    def F(theta):
        return g(np.cos(theta)) * np.sin(theta)

    return _adaptive_simpson(F, tol)


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


def _tensor_simpson_2d(h, npanels: int) -> float:
    return _simpson_2d(h, *_panels(npanels))


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
    return _refine(lambda n: _tensor_simpson_2d(h, n), 2, tol, 8192)


def _tensor_simpson_3d(h, npanels: int) -> float:
    x, s, w = _panels(npanels)
    acc = 0.0
    # slab at a time along the first axis to bound memory, on one grid
    for i in range(npanels + 1):
        acc += w[i] * s[i] * _simpson_2d(lambda y, z: h(x[i], y, z), x, s, w)
    return acc


def integrate_3d(h, tol: float = 1e-7) -> IntegrationResult:
    """integral over [-1,1]^3 of h(x, y, z).

    Tensor Simpson under the cos substitution, refined by doubling, then
    confirmed against a scrambled-Sobol quasi-MC estimate with a fixed seed;
    raises if the two estimators disagree beyond combined error bars.
    """
    t = _refine(lambda n: _tensor_simpson_3d(h, n), 3, tol, 512)

    # imported here, not at the top, so that `import gkm` does not load scipy.stats
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=3, scramble=True, seed=MC_SEED)
    pts = 2.0 * sampler.random(MC_POINTS) - 1.0
    vals = h(pts[:, 0], pts[:, 1], pts[:, 2]) * 8.0
    nbatch = 8
    batches = vals.reshape(nbatch, -1).mean(axis=1)
    mc = float(batches.mean())
    mc_sigma = float(batches.std(ddof=1) / np.sqrt(nbatch))
    if abs(t.value - mc) > 3.0 * mc_sigma + t.abs_error_estimate + tol:
        raise EstimatorDisagreement(
            f"tensor {t.value} vs quasi-MC {mc} (sigma {mc_sigma}, tensor err {t.abs_error_estimate})"
        )
    return IntegrationResult(t.value, t.abs_error_estimate, t.evaluations + MC_POINTS)
