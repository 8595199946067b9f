"""Exact rational values of the partial-fraction closed forms, as a truth
that does not share the package's floating-point arithmetic.

Every float is a rational number, so for distinct float parameters a_i

    1 / A = sum_i a_i^{n-1} / prod_{j != i} (a_i - a_j)(1 - a_i a_j),
    B_k = A sum_i a_i^{n+k-1} / prod_{j != i} (a_i - a_j)(1 - a_i a_j)

are computed here in `fractions.Fraction`, without rounding, and rounded
once at the end.  About 10 ms per set at n = 10.  So is the Gram matrix of
polynomials given by float U coefficients, against that exact measure.
"""

from fractions import Fraction


def _exact_A_B(a, K: int):
    """(A, [B_0..B_K]) of the distinct floats a, as Fractions."""
    a = [Fraction(v) for v in a]
    n = len(a)
    if n == 0:
        return Fraction(1), [Fraction(1)] + [Fraction(0)] * K
    weights = []
    for i, ai in enumerate(a):
        den = Fraction(1)
        for j, aj in enumerate(a):
            if j != i:
                den *= (ai - aj) * (1 - ai * aj)
        weights.append(ai ** (n - 1) / den)
    A = 1 / sum(weights)
    return A, [A * sum(w * ai ** k for w, ai in zip(weights, a)) for k in range(K + 1)]


def exact_A_B(a, K: int):
    """(A, [B_0..B_K]) of the distinct floats a, each rounded once to the
    nearest float."""
    A, B = _exact_A_B(a, K)
    return float(A), [float(b) for b in B]


def exact_gram(a, coeffs):
    """[[G_jk]]: the integral of P_j P_k against the exact measure of the
    distinct floats a, where P_j is the U series of the floats coeffs[j];
    each entry rounded once to the nearest float.  With C the matrix of
    coefficients and M_il = B_|i-l| + B_|i-l|+2 + ... + B_i+l the exact
    integral of U_i U_l, G = C M C^T."""
    C = [[Fraction(c) for c in row] for row in coeffs]
    size = max(map(len, C))
    _, B = _exact_A_B(a, 2 * size - 2)
    M = [[sum(B[abs(i - l) : i + l + 1 : 2]) for l in range(size)] for i in range(size)]
    CM = [[sum(c * M[i][l] for i, c in enumerate(row)) for l in range(size)] for row in C]
    return [[float(sum(w * c for w, c in zip(v, row))) for row in C] for v in CM]
