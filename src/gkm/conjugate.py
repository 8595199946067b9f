"""Conjugate-pair branch: densities built from the positive quartic kernel w.

When the real parameters come in conjugate pairs a = rho (y +- i sqrt(1-y^2)),
each pair of linear denominator factors collapses into
w(x, y | rho) = (1 - rho^2)^2 - 4 x y rho (1 + rho^2) + 4 rho^2 (x^2 + y^2),
so the whole evaluation path stays in real arithmetic.  The module covers the
closed normalizers up to three pairs, the Poisson-Mehler series, the bivariate
and trivariate densities, and the Markov-kernel identities they satisfy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import oracle
from .chebyshev import _check_x, _truncation_order, _unwrap, u_all
from .core import _check_unit, _json_params, _reals
from .errors import InvalidParameters, Unsupported


@dataclass(frozen=True)
class ConjParamSet:
    """k conjugate pairs (rho_i, y_i) with |rho_i| < 1, |y_i| <= 1; frozen,
    so it keeps its normalizer, computed on first use."""

    rho: tuple = field(default=())
    y: tuple = field(default=())

    def __post_init__(self):
        rho = _reals("rho", self.rho)
        y = _reals("y", self.y)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "y", y)
        if len(rho) != len(y):
            raise InvalidParameters("rho and y must have the same length")
        _check_unit(**{f"rho_{i + 1}": r for i, r in enumerate(rho)})
        # written as "not (... <= ...)" so that NaN is rejected too
        for i, v in enumerate(y):
            if not abs(v) <= 1.0:
                raise InvalidParameters(f"|y_{i + 1}| must be <= 1, got {v}")

    @property
    def k(self) -> int:
        return len(self.rho)

    def _g(self, x):
        """The factor g of the density A g(x) (2/pi) sqrt(1 - x^2),
        1/prod_i w(x, y_i, rho_i), on the float array x: one division per
        pair in turn, in place."""
        r = np.ones(np.shape(x))
        for ri, yi in zip(self.rho, self.y):
            np.divide(r, w_eval(x, yi, ri), out=r)
        return r

    @cached_property
    def _A(self) -> float:
        """The normalizer: the closed A2k_closed up to three pairs, the
        numeric oracle beyond."""
        if self.k <= 3:
            return A2k_closed(self)
        return oracle.normalizer_numeric(self)

    def complex_a(self) -> np.ndarray:
        """Equivalent length-2k complex a-vector (consistency tests only)."""
        out = []
        for r, v in zip(self.rho, self.y):
            s = np.sqrt(1.0 - v * v)
            out += [r * (v + 1j * s), r * (v - 1j * s)]
        return np.asarray(out)

    def to_json(self) -> str:
        return json.dumps({"rho": list(self.rho), "y": list(self.y)})

    @staticmethod
    def from_json(s: str) -> "ConjParamSet":
        d = _json_params(s, ("rho", "y"))
        return ConjParamSet(rho=tuple(d["rho"]), y=tuple(d["y"]))


def w_eval(x, y, rho):
    """(1 - rho^2)^2 - 4 x y rho (1 + rho^2) + 4 rho^2 (x^2 + y^2); positive
    for |x|, |y| <= 1 and |rho| < 1."""
    return (1.0 - rho * rho) ** 2 - 4.0 * x * y * rho * (1.0 + rho * rho) + 4.0 * rho * rho * (x * x + y * y)


def w3_eval(y1, y2, y3, r1, r2, r3):
    """The trivariate polynomial in the three-pair normalizer and 3D density."""
    t1 = (
        (1.0 - r1 ** 2 * r2 ** 2)
        * (1.0 - r2 ** 2 * r3 ** 2)
        * (1.0 - r1 ** 2 * r3 ** 2)
        * (1.0 - r1 ** 2 * r2 ** 2 * r3 ** 2)
    )
    t2 = -4.0 * r1 * r2 * r3 * (1.0 + r1 ** 2 * r2 ** 2 * r3 ** 2) * (
        r1 * (1.0 - r2 ** 2) * (1.0 - r3 ** 2) * y2 * y3
        + r2 * (1.0 - r1 ** 2) * (1.0 - r3 ** 2) * y1 * y3
        + r3 * (1.0 - r1 ** 2) * (1.0 - r2 ** 2) * y1 * y2
    )
    t3 = 4.0 * r1 ** 2 * r2 ** 2 * r3 ** 2 * (
        (1.0 - r1 ** 2) * (1.0 - r2 ** 2 * r3 ** 2) * y1 ** 2
        + (1.0 - r2 ** 2) * (1.0 - r1 ** 2 * r3 ** 2) * y2 ** 2
        + (1.0 - r3 ** 2) * (1.0 - r1 ** 2 * r2 ** 2) * y3 ** 2
    )
    return t1 + t2 + t3


def A2k_closed(p: ConjParamSet) -> float:
    """Closed normalizer for one, two, or three conjugate pairs."""
    r = p.rho
    y = p.y
    if p.k == 0:
        return 1.0
    if p.k == 1:
        return 1.0 - r[0] ** 2
    if p.k == 2:
        return (
            (1.0 - r[0] ** 2) * (1.0 - r[1] ** 2)
            * w_eval(y[0], y[1], r[0] * r[1])
            / (1.0 - r[0] ** 2 * r[1] ** 2)
        )
    if p.k == 3:
        return (
            (1.0 - r[0] ** 2) * (1.0 - r[1] ** 2) * (1.0 - r[2] ** 2)
            * w_eval(y[0], y[1], r[0] * r[1])
            * w_eval(y[1], y[2], r[1] * r[2])
            * w_eval(y[0], y[2], r[0] * r[2])
            / w3_eval(y[0], y[1], y[2], r[0], r[1], r[2])
        )
    raise Unsupported("closed normalizers stop at three pairs; use the numeric oracle")


def fM_density(p: ConjParamSet, x):
    """Density value(s) of the conjugate-pair distribution at x in [-1, 1]."""
    x = _check_x(x)
    num = p._A * 2.0 * np.sqrt(np.maximum(1.0 - x * x, 0.0))
    den = np.pi * np.ones_like(x)
    for r, v in zip(p.rho, p.y):
        den = den * w_eval(x, v, r)
    return _unwrap(num / den)


def wigner_density(x):
    """Semicircle density, the zero-pair member of the family."""
    x = _check_x(x)
    r = (2.0 / np.pi) * np.sqrt(np.maximum(1.0 - x * x, 0.0))
    return _unwrap(r)


def poisson_mehler_order(rho: float, tol: float) -> int:
    """Smallest J with (J+1)^2 |rho|^J / (1 - |rho|) < tol; 0 < tol < inf.
    Unsupported above SERIES_ORDER_CAP."""
    _check_unit(rho=rho)
    r = abs(rho)
    return _truncation_order(r, lambda J: (J + 1) ** 2 * r ** J / (1.0 - r), tol, f"rho={rho}")


def poisson_mehler(x, y, rho: float, tol: float = 1e-12):
    """Truncated series sum_j rho^j U_j(x) U_j(y); equals
    (1 - rho^2) / w(x, y | rho) within tol."""
    J = poisson_mehler_order(rho, tol)
    ux = u_all(J, x)
    uy = u_all(J, y)
    powers = rho ** np.arange(J + 1)
    return _unwrap(np.tensordot(powers, ux * uy, axes=(0, 0)))


def f2M(x, y, rho: float):
    """Bivariate density with Wigner marginals and U-diagonal correlation."""
    _check_unit(rho=rho)
    x = _check_x(x)
    y = _check_x(y)
    r = (
        4.0
        * (1.0 - rho * rho)
        * np.sqrt(np.maximum((1.0 - x * x) * (1.0 - y * y), 0.0))
        / (np.pi ** 2 * w_eval(x, y, rho))
    )
    return _unwrap(r)


def g3(y1, y2, y3, r1: float, r2: float, r3: float):
    """Trivariate density whose 2D marginals are the pairwise f2M densities."""
    _check_unit(r1=r1, r2=r2, r3=r3)
    y1 = _check_x(y1)
    y2 = _check_x(y2)
    y3 = _check_x(y3)
    num = (
        (8.0 / np.pi ** 3)
        * np.sqrt(np.maximum(1.0 - y1 * y1, 0.0))
        * np.sqrt(np.maximum(1.0 - y2 * y2, 0.0))
        * np.sqrt(np.maximum(1.0 - y3 * y3, 0.0))
        * w3_eval(y1, y2, y3, r1, r2, r3)
    )
    den = (
        w_eval(y1, y2, r1 * r2)
        * w_eval(y2, y3, r2 * r3)
        * w_eval(y1, y3, r1 * r3)
    )
    r = num / den
    return _unwrap(r)


def transition_density(x, y, rho: float):
    """One-pair density viewed as the Markov transition kernel x | y."""
    _check_unit(rho=rho)
    x = _check_x(x)
    y = _check_x(y)
    r = (1.0 - rho * rho) * (2.0 / np.pi) * np.sqrt(np.maximum(1.0 - x * x, 0.0)) / w_eval(x, y, rho)
    return _unwrap(r)


def chapman_residual(x: float, y2: float, r1: float, r2: float, tol: float = 1e-10) -> float:
    """Quadrature check of the Chapman-Kolmogorov composition: integrating the
    r1 kernel against the r2 kernel over the middle variable must reproduce
    the r1*r2 kernel."""
    _check_unit(r1=r1, r2=r2)

    def g(y1):
        # weight (2/pi) sqrt(1-y1^2) is supplied by integrate_weighted
        return (
            (1.0 - r1 * r1) / w_eval(x, y1, r1)
            * (1.0 - r2 * r2) * (2.0 / np.pi) * np.sqrt(np.maximum(1.0 - x * x, 0.0)) / w_eval(y1, y2, r2)
        )

    lhs = oracle.integrate_weighted(g, tol).value
    rhs = transition_density(x, y2, r1 * r2)
    return float(lhs - rhs)


def conditional_bridge(x: float, y1: float, y2: float, r1: float, r2: float) -> float:
    """Conditional density of the middle state of the three-step Markov chain,
    written as the kernel ratio; equals the two-pair density at x.

    At y1 = +-1 or y2 = +-1 numerator and denominator vanish.  There the
    common factors wigner_density(y2) and sqrt(1 - y1^2) are cancelled by
    hand, which leaves the Poisson kernels (1 - rho^2) / w of y1.
    """
    _check_unit(r1=r1, r2=r2)
    if abs(y1) < 1.0 and abs(y2) < 1.0:
        num = (
            transition_density(y1, x, r1)
            * transition_density(x, y2, r2)
            * wigner_density(y2)
        )
        den = transition_density(y1, y2, r1 * r2) * wigner_density(y2)
        return float(num / den)
    _check_x([y1, y2])
    num = (1.0 - r1 * r1) / w_eval(y1, x, r1) * transition_density(x, y2, r2)
    den = (1.0 - (r1 * r2) ** 2) / w_eval(y1, y2, r1 * r2)
    return float(num / den)
