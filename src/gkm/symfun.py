"""Elementary symmetric and complete homogeneous sums of a parameter vector.

Both are computed by coefficient-array dynamic programming, never by
enumerating monomials: S_k comes from multiplying out prod(1 + t a_i),
h_m from the prefix recurrence of the complete homogeneous polynomials.
"""

from __future__ import annotations

import numpy as np

from .chebyshev import _index


def elementary_all(a) -> np.ndarray:
    """All elementary symmetric functions S_0..S_n of a_1..a_n, as an array
    that is complex for complex a.

    Multiplies out prod_i (1 + t a_i) one factor at a time, so the only
    subtractions are those present in the data itself.
    """
    a = np.asarray(a)
    coeffs = np.zeros(len(a) + 1, dtype=a.dtype if a.dtype.kind == "c" else float)
    coeffs[0] = 1.0
    for x in a:
        coeffs[1:] += x * coeffs[:-1]
    return coeffs


def delta_all(mmax: int, a) -> np.ndarray:
    """Complete homogeneous sums h_0..h_mmax (h_m sums all monomials of total
    degree m) in one DP sweep over growing prefixes:
    h_m(a_1..a_i) = h_m(a_1..a_{i-1}) + a_i * h_{m-1}(a_1..a_i).
    """
    mmax = _index(mmax, "mmax")
    a = np.asarray(a, dtype=float)
    h = np.zeros(mmax + 1)
    h[0] = 1.0
    for x in a:
        for d in range(1, mmax + 1):
            h[d] += x * h[d - 1]
    return h
