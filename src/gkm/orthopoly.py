"""Polynomials orthogonal with respect to the generalized Kesten-McKay density.

P_m is the signed elementary-symmetric combination of the last n + 1
Chebyshev-U polynomials, with negative indices folded through U_{-1} = 0 and
U_{-m-2} = -U_m.  The family is neither monic nor orthonormal, and the plain
three-term recurrence 2x P_m = P_{m+1} + P_{m-1} holds only for m >= n.

Caveat: truncating the signed sum at j = 2m + 2 (required to keep the degree
equal to m) drops terms whenever n > 2m + 2, and the dropped terms are
exactly the ones the alternating coefficient identity needs for
orthogonality.  In that regime the formula still defines a degree-m
polynomial, but its inner product with lower-degree members is a small
nonzero quantity expressible through the dropped S_j B_k products (for
m = 1: S_6 B_3 - S_5 B_2).  Within n <= 6 only the degree-1 member at
n = 5, 6 is affected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chebyshev import USeries, _check_x, _index, _unwrap
from .core import ParamSet, _UU_sum
from .errors import InvalidParameters


@dataclass(frozen=True)
class OrthoPoly:
    m: int
    series: USeries

    def __call__(self, x):
        return self.series(x)


def P_coeffs(m: int, p: ParamSet) -> OrthoPoly:
    """U-basis representation sum_{j=0}^{min(n, 2m+2)} (-1)^j S_j U_{m-j}.

    P_0 is pinned to the constant 1 (the signed-sum display would give the
    constant 1 - S_2 instead, an irrelevant rescaling of the same degree-0
    member).  Each P_m is built once per parameter set and kept on it.
    """
    if type(m) is int:
        # kept, as in core.moment
        try:
            return p.__dict__["P", m]
        except KeyError:
            pass
    m = _index(m, "m")
    return p._kept("P", m, lambda: _build_P(m, p))


def _build_P(m: int, p: ParamSet) -> OrthoPoly:
    if m == 0:
        return OrthoPoly(m=0, series=USeries((1.0,)))
    S = p._S
    jmax = min(p.n, 2 * m + 2)
    pairs = [(m - j, (-1.0) ** j * S[j]) for j in range(jmax + 1)]
    return OrthoPoly(m=m, series=USeries.from_signed(pairs))


def P_recur_check(m: int, p: ParamSet, x):
    """2x P_m - P_{m+1} - P_{m-1} at x, in x's shape; vanishes for m >= n."""
    m = _index(m, "m")
    if m < p.n or m < 1:
        raise InvalidParameters("three-term recurrence requires m >= n >= 1")
    x = _check_x(x)
    return _unwrap(2.0 * x * P_coeffs(m, p)(x) - P_coeffs(m + 1, p)(x) - P_coeffs(m - 1, p)(x))


def gram(m: int, k: int, p: ParamSet) -> float:
    """integral of P_m P_k against the density, bilinearly through the exact
    U-product expansion (no quadrature).  Each entry, and each sum of B
    values it reads, is computed once per parameter set and kept on it; the
    entries (m, k) and (k, m) sum in different orders, so each is kept on
    its own."""
    if type(m) is int and type(k) is int:
        # kept, as in core.moment
        try:
            return p.__dict__["gram", (m, k)]
        except KeyError:
            pass
    m, k = _index(m, "m"), _index(k)
    return p._kept("gram", (m, k), lambda: _gram(m, k, p))


def _gram(m: int, k: int, p: ParamSet) -> float:
    cm = P_coeffs(m, p).series.coeffs
    ck = P_coeffs(k, p).series.coeffs
    if not cm or not ck:
        return 0.0
    kept = p.__dict__
    total = 0.0
    for i, ci in enumerate(cm):
        if ci == 0.0:
            continue
        for j, cj in enumerate(ck):
            if cj == 0.0:
                continue
            # U_i U_j = sum_{l=0}^{min(i,j)} U_{|i-j|+2l}; the sum of B
            # values read where _UU_sum keeps it, as in core.inner_UU
            try:
                uu = kept["UU", (abs(i - j), i + j)]
            except KeyError:
                uu = _UU_sum(p, abs(i - j), i + j)
            total += ci * cj * uu
    return total
