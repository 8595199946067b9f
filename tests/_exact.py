"""Exact rational values of the partial-fraction closed forms, as a truth
that does not share the package's floating-point arithmetic.

Every float is a rational number, so for distinct float parameters a_i

    1 / A = sum_i a_i^{n-1} / prod_{j != i} (a_i - a_j)(1 - a_i a_j),
    B_k = A sum_i a_i^{n+k-1} / prod_{j != i} (a_i - a_j)(1 - a_i a_j)

are computed here in `fractions.Fraction`, without rounding, and rounded
once at the end.  About 10 ms per set at n = 10.
"""

from fractions import Fraction


def exact_A_B(a, K: int):
    """(A, [B_0..B_K]) of the distinct floats a, each rounded once to the
    nearest float."""
    a = [Fraction(v) for v in a]
    n = len(a)
    if n == 0:
        return 1.0, [1.0] + [0.0] * K
    weights = []
    for i, ai in enumerate(a):
        den = Fraction(1)
        for j, aj in enumerate(a):
            if j != i:
                den *= (ai - aj) * (1 - ai * aj)
        weights.append(ai ** (n - 1) / den)
    A = 1 / sum(weights)
    B = [A * sum(w * ai ** k for w, ai in zip(weights, a)) for k in range(K + 1)]
    return float(A), [float(b) for b in B]
