"""Generalized Kesten-McKay densities and their closed-form apparatus.

The density on [-c, c] is a scaled semicircle divided by a product of
factors c(1 + a_j^2) - 2 a_j x, one per real parameter a_j with |a_j| < 1.
This module provides the normalizing constant (partial-fraction closed form
and the cancellation-free low-order specials), the U-basis expansion
coefficients B_{n,k}, raw moments, the generating-function route to the
B sequence, and the rational-symmetric identity residuals used as exact
self-checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import oracle
from .chebyshev import u_all
from .errors import (
    DegenerateParameters,
    DomainError,
    InternalInconsistency,
    InvalidParameters,
    Unsupported,
    ZeroParameter,
)
from .symfun import elementary_all

# Partial-fraction closed forms are refused below this parameter separation.
DISTINCTNESS_TOL = 1e-6

# density_series sums the U series over slices of the points holding at most
# this many basis values (8 MB of doubles), whatever the number of points.
SERIES_BLOCK = 1 << 20


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ParamSet:
    """Scale c and real parameter vector a of the density.

    The operands every closed form shares (the float array of a, S_0..S_n,
    the normalizer, and the partial-fraction denominators with the
    normalizer built from them) are computed on first use and kept on the
    instance; cached arrays are read-only.  A getter that raises stores
    nothing, so a coincident set refuses the partial-fraction forms on
    every call.
    """

    a: tuple = field(default=())
    c: float = 1.0

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", float(self.c))
        # written as "not (... < ...)" so that NaN is rejected too
        if not (0.0 < self.c < math.inf):
            raise InvalidParameters(f"scale c must be positive and finite, got {self.c}")
        for i, ai in enumerate(a):
            if not abs(ai) < 1.0:
                raise InvalidParameters(f"|a_{i + 1}| must be < 1, got {ai}")

    @property
    def n(self) -> int:
        return len(self.a)

    @cached_property
    def min_gap(self) -> float:
        a = self.a
        if len(a) < 2:
            return math.inf
        return min(abs(a[i] - a[j]) for i in range(len(a)) for j in range(i + 1, len(a)))

    @cached_property
    def _a(self) -> np.ndarray:
        return _read_only(np.asarray(self.a, dtype=float))

    @cached_property
    def _S(self) -> np.ndarray:
        """Elementary symmetric values S_0..S_n of a."""
        return _read_only(elementary_all(self._a).S.real)

    @cached_property
    def _A(self) -> float:
        """The normalizer, by the route `normalizer` documents."""
        if self.n <= 6:
            return A_special(self)
        if self.min_gap > DISTINCTNESS_TOL:
            return A_closed(self)
        return oracle.normalizer_numeric(self)

    @cached_property
    def _pf_den(self) -> np.ndarray:
        """prod_{j != i} (a_i - a_j)(1 - a_i a_j) for each i; refused for
        coincident parameters."""
        _require_distinct(self)
        a = self._a
        out = np.ones(self.n)
        for i in range(self.n):
            for j in range(self.n):
                if j != i:
                    out[i] *= (a[i] - a[j]) * (1.0 - a[i] * a[j])
        return _read_only(out)

    @cached_property
    def _A_closed(self) -> float:
        return float(1.0 / np.sum(self._a ** (self.n - 1) / self._pf_den))

    def to_json(self) -> str:
        return json.dumps({"c": self.c, "a": list(self.a)})

    @staticmethod
    def from_json(s: str) -> "ParamSet":
        d = json.loads(s)
        return ParamSet(a=tuple(d["a"]), c=float(d.get("c", 1.0)))


@dataclass(frozen=True)
class BSeq:
    """Prefix B_{n,0}..B_{n,K} of the U-expansion coefficients."""

    values: np.ndarray

    @property
    def K(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


def _require_distinct(p: ParamSet):
    if p.min_gap <= DISTINCTNESS_TOL:
        raise DegenerateParameters(
            f"min parameter gap {p.min_gap:g} <= {DISTINCTNESS_TOL:g}; "
            "use the numeric normalizer instead"
        )


def A_closed(p: ParamSet) -> float:
    """Normalizer by the partial-fraction sum 1 / sum_i a_i^{n-1} / prod(...)."""
    if p.n == 0:
        return 1.0
    return p._A_closed


def _pair_product(a: np.ndarray) -> float:
    n = len(a)
    r = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            r *= 1.0 - a[i] * a[j]
    return float(r)


def A_special(p: ParamSet) -> float:
    """Normalizer from the explicit n <= 6 formulas (no a_i - a_j denominators,
    so coincident parameters are fine here)."""
    n = p.n
    if n > 6:
        raise Unsupported("explicit normalizer formulas stop at n = 6")
    num = _pair_product(p._a)
    if n <= 3:
        return num
    S = p._S
    if n == 4:
        den = 1.0 - S[4]
    elif n == 5:
        den = 1.0 - S[4] + S[1] * S[5] - S[5] ** 2
    else:
        den = (
            1.0 - S[4] + S[1] * S[5] - S[5] ** 2
            - S[6] - S[1] ** 2 * S[6] + S[2] * S[6] + S[4] * S[6]
            + S[1] * S[5] * S[6] - S[6] ** 2 - S[2] * S[6] ** 2 + S[6] ** 3
        )
    return float(num / den)


def normalizer(p: ParamSet) -> float:
    """Best-available normalizer: cancellation-free special form, then the
    partial-fraction closed form, then numeric quadrature; computed once
    per parameter set."""
    return p._A


def density(p: ParamSet, x):
    """Density value(s) at x in [-c, c]."""
    x = np.asarray(x, dtype=float)
    c = p.c
    if not np.all(np.abs(x) <= c):  # also rejects NaN
        raise DomainError(f"x outside [-{c}, {c}]")
    A = normalizer(p)
    num = 2.0 * A * c ** (p.n - 2) * np.sqrt(np.maximum(c * c - x * x, 0.0))
    den = np.pi * np.ones_like(x)
    for aj in p.a:
        den = den * (c * (1.0 + aj * aj) - 2.0 * aj * x)
    r = num / den
    return r if r.shape else float(r)


def density_classical_km(v: float, x):
    """The classical Kesten-McKay density with parameter v > 1 on
    [-2 sqrt(v-1), 2 sqrt(v-1)]."""
    if v <= 1.0:
        raise InvalidParameters("v must exceed 1")
    x = np.asarray(x, dtype=float)
    half_width = 2.0 * math.sqrt(v - 1.0)
    if np.any(np.abs(x) > half_width):
        raise DomainError(f"x outside [-{half_width}, {half_width}]")
    r = v * np.sqrt(np.maximum(4.0 * (v - 1.0) - x * x, 0.0)) / (2.0 * np.pi * (v * v - x * x))
    return r if r.shape else float(r)


def B_coeff(p: ParamSet, k: int) -> float:
    """B_{n,k} = A_n sum_i a_i^{n+k-1} / prod_{j != i} (a_i - a_j)(1 - a_i a_j)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if p.n == 0:
        return 1.0 if k == 0 else 0.0
    return float(p._A_closed * np.sum(p._a ** (p.n + k - 1) / p._pf_den))


def B_prefix(p: ParamSet, K: int) -> BSeq:
    """B_{n,0}..B_{n,K} by the closed form."""
    if p.n == 0:
        v = np.zeros(K + 1)
        v[0] = 1.0
        return BSeq(values=v)
    ks = np.arange(K + 1)
    v = p._A_closed * np.sum(p._a[None, :] ** (p.n + ks[:, None] - 1) / p._pf_den[None, :], axis=1)
    return BSeq(values=v)


def _B_signed(p: ParamSet, k: int) -> float:
    """B extended to negative index through U_{-1} = 0, U_{-m-2} = -U_m."""
    if k >= 0:
        return B_coeff(p, k)
    if k == -1:
        return 0.0
    return -B_coeff(p, -k - 2)


def series_truncation_order(amax: float, tol: float) -> int:
    """Smallest K with the tail bound amax^{K+1} (K+2) / (1 - amax) < tol
    (uses |U_k| <= k + 1 on [-1, 1])."""
    if amax == 0.0:
        return 0
    K = 0
    while amax ** (K + 1) * (K + 2) / (1.0 - amax) >= tol:
        K += 1
        if K > 100_000:
            raise InternalInconsistency(f"series truncation failed: amax={amax}, tol={tol}")
    return K


def density_series(p: ParamSet, x, tol: float = 1e-10):
    """Density through the U-basis expansion, truncated by the geometric
    tail bound; agrees with the product form to tol.  Requires c = 1."""
    if p.c != 1.0:
        raise InvalidParameters("series path is defined at scale c = 1")
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0):  # also rejects NaN
        raise DomainError("x outside [-1, 1]")
    amax = max((abs(ai) for ai in p.a), default=0.0)
    K = series_truncation_order(amax, tol)
    B = B_prefix(p, K).values
    flat = x.reshape(-1)
    s = np.empty(flat.size)
    step = max(SERIES_BLOCK // (K + 1), 1)
    for lo in range(0, flat.size, step):
        s[lo:lo + step] = np.tensordot(B, u_all(K, flat[lo:lo + step]), axes=(0, 0))
    r = (2.0 / np.pi) * np.sqrt(np.maximum(1.0 - x * x, 0.0)) * s.reshape(x.shape)
    return r if r.shape else float(r)


def moment(p: ParamSet, k: int) -> float:
    """k-th raw moment at scale c = 1 via the finite B-weighted binomial sum."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if p.c != 1.0:
        raise InvalidParameters("moment formula is at scale c = 1; scale by c^k externally")
    total = 0.0
    for j in range(k // 2 + 1):
        total += (k - 2 * j + 1) * math.comb(k + 1, j) * B_coeff(p, k - 2 * j)
    return total / ((k + 1) * 2 ** k)


def inner_UU(p: ParamSet, k: int, m: int) -> float:
    """integral of U_k U_m against the density, as a finite sum of B values."""
    if k < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    return float(sum(B_coeff(p, abs(m - k) + 2 * j) for j in range(min(m, k) + 1)))


# coefficient arrays below are ascending in t

def _poly_from_roots_factors(a: np.ndarray, skip: int | None = None) -> np.ndarray:
    """Coefficients of prod_{j != skip} (1 - a_j t)."""
    coeffs = np.zeros(len(a) + (0 if skip is None else -1) + 1)
    coeffs[0] = 1.0
    pos = 0
    for j, aj in enumerate(a):
        if j == skip:
            continue
        pos += 1
        coeffs[1:pos + 1] = coeffs[1:pos + 1] - aj * coeffs[0:pos]
    return coeffs


def Q_poly(p: ParamSet) -> np.ndarray:
    """Coefficients (ascending in t) of the degree-max(n-2, 0) numerator of
    the B-sequence generating function.

    The formally degree-(n-1) coefficient must cancel; the residual is
    checked before truncation.
    """
    n = p.n
    if n <= 2:
        return np.array([1.0])
    a, den, A = p._a, p._pf_den, p._A_closed
    acc = np.zeros(n)
    for i in range(n):
        acc += (A * a[i] ** (n - 1) / den[i]) * _poly_from_roots_factors(a, skip=i)
    top = acc[-1]
    scale = max(1.0, float(np.max(np.abs(acc))))
    if abs(top) / scale > 1e-8:
        raise InternalInconsistency(
            f"top Q coefficient {top:g} failed to cancel for a={p.a}"
        )
    return acc[: n - 1]


def B_from_genfun(p: ParamSet, K: int) -> BSeq:
    """B_{n,0}..B_{n,K} by formal power-series division of the generating
    function Q_n(t) / prod_i (1 - a_i t)."""
    q = Q_poly(p)
    S = p._S
    d = S * (-1.0) ** np.arange(len(S))  # coefficients of prod (1 - a_i t)
    B = np.zeros(K + 1)
    for k in range(K + 1):
        val = q[k] if k < len(q) else 0.0
        for j in range(1, min(k, len(d) - 1) + 1):
            val -= d[j] * B[k - j]
        B[k] = val
    return BSeq(values=B)


def residual_an2(a) -> float:
    """Left side of the vanishing identity sum_i a_i^{n-2} / prod(...) = 0."""
    a = np.asarray(a, dtype=float)
    n = len(a)
    if n < 2:
        raise ValueError("identity needs n >= 2")
    p = ParamSet(a=tuple(a))
    return float(np.sum(p._a ** (n - 2) / p._pf_den))


def residual_id(k: int, a) -> float:
    """Left side of the symmetric-rational identity with g(x) = (1+x^2)/(2x):

    sum_i a_i^{n-2} S_k(g applied to the others) / prod_{j != i} (a_j - a_i)(1 - a_i a_j).
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    if not 1 <= k <= n - 1:
        raise ValueError("k must satisfy 1 <= k <= n - 1")
    if np.any(a == 0.0):
        raise ZeroParameter("g(x) = (1 + x^2)/(2x) is undefined at 0")
    p = ParamSet(a=tuple(a))
    _require_distinct(p)
    g = (1.0 + a * a) / (2.0 * a)
    total = 0.0
    for i in range(n):
        others = np.delete(g, i)
        Sk = elementary_all(others)[k]
        den = 1.0
        for j in range(n):
            if j != i:
                den *= (a[j] - a[i]) * (1.0 - a[i] * a[j])
        total += a[i] ** (n - 2) * Sk / den
    return float(total)


def residual_id2(m: int, p: ParamSet) -> float:
    """Alternating convolution sum_j (-1)^j S_j B_{n,m-j}; zero analytically.

    B at negative index follows the signed-U convention B_{n,-1} = 0,
    B_{n,-k} = -B_{n,k-2}.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = p.n
    if n < 2:
        raise ValueError("identity needs n >= 2")
    S = p._S
    total = 0.0
    for j in range(n + 1):
        total += (-1.0) ** j * S[j] * _B_signed(p, m - j)
    return float(total)
