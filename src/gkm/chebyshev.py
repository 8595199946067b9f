"""Chebyshev polynomials of the first and second kind on [-1, 1].

Evaluation goes through the forward three-term recurrence, which is
numerically benign on the whole interval (the trigonometric form loses
digits near the endpoints and is kept only as a test oracle).  The module
also provides the signed-index convention U_{-1} = 0, U_{-m-2} = -U_m,
exact conversion of monomials and U-products into the U basis, and the
Gauss quadrature rule for the semicircle weight (2/pi) sqrt(1 - x^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, Unsupported

# power_to_U uses float binomials; beyond this degree they lose precision.
POWER_DEGREE_CAP = 64

# U-series truncation orders (core.series_truncation_order,
# conjugate.poisson_mehler_order) above this are refused as Unsupported;
# each order is one row of the basis the series is summed over.
SERIES_ORDER_CAP = 100_000


def _check_x(x, c=1.0):
    """x as a float array, or DomainError unless every point lies in [-c, c].

    min and max propagate NaN, which fails both comparisons, and allocate no
    temporary.
    """
    x = np.asarray(x, dtype=float)
    if not (x.size == 0 or (x.min() >= -c and x.max() <= c)):
        raise DomainError(f"x outside [-{c}, {c}]")
    return x


def _unwrap(r):
    """An array result as it is; a 0-d one as a Python float."""
    return r if r.shape else float(r)


def _recur(k, x, u1):
    """Term k of v_j = 2x v_{j-1} - v_{j-2} from v_0 = 1 and v_1 = u1, with
    plain operators, so a 0-d x steps on numpy scalars."""
    prev = np.ones_like(x)
    if k == 0:
        return prev
    twox = 2.0 * x
    cur = u1
    for _ in range(k - 1):
        prev, cur = cur, twox * cur - prev
    return cur


def u_all(kmax: int, x, out=None):
    """Values U_0(x)..U_kmax(x), stacked along the first axis.

    If given, out is a float array of shape (kmax + 1,) + x.shape (a view
    will do); the rows are computed in it, with no temporary, and it is
    returned.
    """
    x = _check_x(x)
    if out is None:
        out = np.empty((kmax + 1,) + x.shape)
    elif out.shape != (kmax + 1,) + x.shape:
        raise ValueError(f"out has shape {out.shape}, expected {(kmax + 1,) + x.shape}")
    # rows are indexed as out[j, ...], a view even when x is 0-d
    out[0, ...] = 1.0
    if kmax >= 1:
        np.multiply(2.0, x, out=out[1, ...])
    # out[j] = 2x out[j-1] - out[j-2] in place: the same bits, since
    # doubling is exact
    for j in range(2, kmax + 1):
        np.multiply(out[1, ...], out[j - 1, ...], out=out[j, ...])
        np.subtract(out[j, ...], out[j - 2, ...], out=out[j, ...])
    return out


def eval_U(k: int, x):
    """U_k(x) by the forward recurrence; k >= 0, |x| <= 1."""
    if k < 0:
        raise ValueError("k must be non-negative; use eval_U_signed")
    x = _check_x(x)
    return _unwrap(_recur(k, x, 2.0 * x))


def eval_U_signed(k: int, x):
    """U_k(x) extended to negative index: U_{-1} = 0, U_{-m-2} = -U_m."""
    if k >= 0:
        return eval_U(k, x)
    x = _check_x(x)
    if k == -1:
        return _unwrap(np.zeros_like(x))
    return -eval_U(-k - 2, x)


def eval_T(k: int, x):
    """Chebyshev polynomial of the first kind T_k(x)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    x = _check_x(x)
    # +x is a new array, so T_1 is never the caller's own x
    return _unwrap(_recur(k, x, +x))


@dataclass(frozen=True)
class USeries:
    """Finite coefficient sequence over the U basis; index j is the U_j weight."""

    coeffs: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        for j in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[j] != 0.0:
                return j
        return -1

    def __call__(self, x):
        x = _check_x(x)
        if not self.coeffs:
            return _unwrap(np.zeros_like(x))
        basis = u_all(len(self.coeffs) - 1, x)
        return _unwrap(np.tensordot(np.asarray(self.coeffs), basis, axes=(0, 0)))

    @staticmethod
    def from_dict(d: dict) -> "USeries":
        if not d:
            return USeries(())
        coeffs = [0.0] * (max(d) + 1)
        for j, c in d.items():
            if j < 0:
                raise ValueError("negative U index; fold with the signed rule first")
            coeffs[j] += c
        return USeries(coeffs)

    @staticmethod
    def from_signed(pairs) -> "USeries":
        """Build from (index, coeff) pairs, folding negative indices through
        U_{-1} = 0 and U_{-m-2} = -U_m."""
        d: dict = {}
        for j, c in pairs:
            if j == -1:
                continue
            if j < -1:
                j, c = -j - 2, -c
            d[j] = d.get(j, 0.0) + c
        return USeries.from_dict(d)


def _binomial_row(k: int):
    """C(k, 0..k) by the multiplicative recurrence, in floats."""
    row = np.empty(k + 1)
    row[0] = 1.0
    for j in range(1, k + 1):
        row[j] = row[j - 1] * (k - j + 1) / j
    return row


def power_to_U(k: int) -> USeries:
    """U-basis expansion of the monomial x^k.

    x^k = 2^{-k} sum_{j=0}^{floor(k/2)} (C(k,j) - C(k,j-1)) U_{k-2j}.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > POWER_DEGREE_CAP:
        raise Unsupported(f"degree {k} exceeds the float-binomial cap {POWER_DEGREE_CAP}")
    binom = _binomial_row(k)
    scale = 0.5 ** k
    coeffs = {}
    for j in range(k // 2 + 1):
        c = binom[j] - (binom[j - 1] if j >= 1 else 0.0)
        coeffs[k - 2 * j] = c * scale
    return USeries.from_dict(coeffs)


def product_linearize(k: int, m: int) -> USeries:
    """U_k * U_m = sum_{j=0}^{min(k,m)} U_{|k-m|+2j} (all coefficients one)."""
    if k < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    return USeries.from_dict({abs(k - m) + 2 * j: 1.0 for j in range(min(k, m) + 1)})


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integration against (2/pi) sqrt(1 - x^2) dx."""

    nodes: np.ndarray
    weights: np.ndarray

    def apply(self, g) -> float:
        return float(np.dot(self.weights, g(self.nodes)))


def gauss_chebU_rule(N: int) -> QuadratureRule:
    """Gauss rule for the U-weight: exact for polynomial degree <= 2N - 1.

    Nodes cos(i pi/(N+1)), weights (2/(N+1)) sin^2(i pi/(N+1)), i = 1..N.
    """
    if N < 1:
        raise ValueError("N must be positive")
    i = np.arange(1, N + 1)
    theta = i * np.pi / (N + 1)
    nodes = np.cos(theta)
    weights = (2.0 / (N + 1)) * np.sin(theta) ** 2
    return QuadratureRule(nodes=nodes, weights=weights)
