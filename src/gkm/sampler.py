"""Inverse-transform sampling from the density and KS goodness-of-fit.

The CDF is tabulated on a Chebyshev-extrema grid (dense near the endpoints
where the density has square-root behavior) and inverted through monotone
cubic interpolation, so moment recovery is not biased by grid resolution.
Uniform draws come from the Philox counter-based generator: the stream is a
pure function of (seed, counter), so any run with the same seed reproduces
the same samples bit for bit regardless of partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import ParamSet, density

# 99% asymptotic critical value of the Kolmogorov statistic: D * sqrt(n) < 1.628
KS_CRIT_99 = 1.628


@dataclass(frozen=True)
class CdfTable:
    """Monotone grid of (x, F(x)) pairs for one parameter set."""

    xs: np.ndarray
    Fs: np.ndarray

    # scipy.interpolate is imported on first use, so that `import gkm`
    # (and every CLI command that does not sample) does not load it

    @cached_property
    def cdf(self):
        """x -> F(x), monotone cubic through the table."""
        from scipy.interpolate import PchipInterpolator

        return PchipInterpolator(self.xs, self.Fs)

    @cached_property
    def inverse(self):
        """u -> F^{-1}(u), monotone cubic through the table."""
        from scipy.interpolate import PchipInterpolator

        return PchipInterpolator(self.Fs, self.xs)


def build_cdf(p: ParamSet, N: int = 2048) -> CdfTable:
    """Tabulate the CDF on N Chebyshev-extrema points of [-c, c].

    Cell masses come from per-cell Gauss-Legendre quadrature in the angular
    variable (the transformed integrand is smooth); the table is renormalized
    so F at the right endpoint is exactly one.
    """
    if N < 64:
        raise ValueError("N must be at least 64")
    c = p.c
    # theta decreasing from pi to 0 makes xs = c cos(theta) increasing
    theta = np.pi * (1.0 - np.arange(N) / (N - 1))
    xs = c * np.cos(theta)
    xs[0] = -c
    xs[-1] = c
    gl_nodes, gl_weights = leggauss(8)
    lo = theta[:-1]
    hi = theta[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    tq = mid[:, None] + half[:, None] * gl_nodes[None, :]
    vals = density(p, c * np.cos(tq)) * c * np.sin(tq)
    # dx = -c sin(theta) dtheta and theta runs downward, so the cell mass is
    # the GL sum times |half|
    masses = np.sum(vals * gl_weights[None, :], axis=1) * np.abs(half)
    Fs = np.concatenate([[0.0], np.cumsum(masses)])
    Fs /= Fs[-1]
    Fs[0] = 0.0
    Fs[-1] = 1.0
    return CdfTable(xs=xs, Fs=Fs)


def sample(t: CdfTable, count: int, seed: int) -> np.ndarray:
    """count inverse-transform draws; reproducible from (seed) alone."""
    if count < 1:
        raise ValueError("count must be positive")
    gen = np.random.Generator(np.random.Philox(key=seed))
    u = gen.random(count)
    x = t.inverse(u)
    return np.clip(x, t.xs[0], t.xs[-1])


def ks_statistic(samples, t: CdfTable) -> float:
    """Sup-norm distance between the empirical CDF and the table's CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise ValueError("samples must be nonempty")
    F = np.clip(t.cdf(np.clip(s, t.xs[0], t.xs[-1])), 0.0, 1.0)
    n = s.size
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - F)
    d_minus = np.max(F - (i - 1) / n)
    return float(max(d_plus, d_minus))


def _ks_pass(d: float, n: int) -> bool:
    """Asymptotic Kolmogorov test at 1% significance of a statistic d from n draws."""
    return bool(d * np.sqrt(n) < KS_CRIT_99)


def ks_passes(samples, t: CdfTable) -> bool:
    """Asymptotic Kolmogorov test at 1% significance."""
    return _ks_pass(ks_statistic(samples, t), len(samples))
