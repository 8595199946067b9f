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

import numpy as np

from .chebyshev import USeries, _check_x, _index, _u_sums, _unwrap
from .core import ParamSet
from .errors import InvalidParameters, Unsupported

# gram's largest degree, where the kept matrix holds 1001^2 floats (8 MB)
GRAM_ORDER_CAP = 1000


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
    S = p._S
    pairs = [(m - j, (-1.0) ** j * S[j]) for j in range(min(p.n, 2 * m + 2) + 1)] if m else [(0, 1.0)]
    return OrthoPoly(m=m, series=USeries.from_signed(pairs))


def P_recur_check(m: int, p: ParamSet, x):
    """2x P_m - P_{m+1} - P_{m-1} at x, in x's shape; vanishes for m >= n.
    The three members are summed on one U basis (chebyshev._u_sums), each
    with the bits of P_coeffs(j, p)(x)."""
    m = _index(m, "m")
    if m < p.n or m < 1:
        raise InvalidParameters("three-term recurrence requires m >= n >= 1")
    x = _check_x(x)
    lo, mid, hi = _u_sums([np.asarray(P_coeffs(j, p).series.coeffs) for j in (m - 1, m, m + 1)], x)
    return _unwrap(2.0 * x * mid - hi - lo)


def gram(m: int, k: int, p: ParamSet) -> float:
    """integral of P_m P_k against the density through the exact U-product
    expansion (no quadrature): entry (m, k) of the Gram matrix kept on p
    (_gram_matrix), so gram(m, k, p) and gram(k, m, p) have the same bits;
    Unsupported above GRAM_ORDER_CAP."""
    if type(m) is int and type(k) is int:
        # kept, as in core.moment; a negative int must not index from the end
        G = p.__dict__.get("_gram_matrix", ())
        if -1 < m < len(G) and -1 < k < len(G):
            return G[m][k]
    m, k = _index(m, "m"), _index(k)
    if max(m, k) > GRAM_ORDER_CAP:
        raise Unsupported(f"Gram entry ({m}, {k}) above degree {GRAM_ORDER_CAP}")
    return _gram_matrix(p, max(m, k))[m][k]


def _gram_matrix(p: ParamSet, m: int) -> list:
    """The kept Gram matrix G = C M C^T, as rows of Python floats, of at
    least m + 1 rows; a larger request grows it to at least twice its size
    (up to GRAM_ORDER_CAP + 1), as ParamSet._B grows the B table.  Row j of
    the lower-triangular C holds P_j's U coefficients, and each
    M_ij = B_|i-j| + B_|i-j|+2 + ... + B_i+j = integral of U_i U_j is its own
    sum, with inner_UU's bits.  Row r of the lower triangle comes from
    operands of size r + 1, so no entry's bits depend on the kept size; the
    upper triangle mirrors it."""
    G = p.__dict__.get("_gram_matrix", ())
    if m < len(G):
        return G
    N = max(m + 1, min(2 * len(G), GRAM_ORDER_CAP + 1))
    C = np.zeros((N, N))
    for j in range(N):
        C[j, : j + 1] = P_coeffs(j, p).series.coeffs
    B = p._B(2 * N - 2)
    M = np.empty((N, N))
    for i in range(N):
        for j in range(i + 1):
            M[i, j] = M[j, i] = np.add.reduce(B[i - j : i + j + 1 : 2])
    L = np.zeros((N, N))
    for r in range(N):
        L[r, : r + 1] = C[: r + 1, : r + 1] @ (C[r, : r + 1] @ M[: r + 1, : r + 1])
    G = p.__dict__["_gram_matrix"] = np.where(np.tri(N, dtype=bool), L, L.T).tolist()
    return G
