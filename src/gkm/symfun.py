"""Elementary symmetric sums of a parameter vector, computed by
coefficient-array dynamic programming, never by enumerating monomials:
S_k comes from multiplying out prod(1 + t a_i).
"""

from __future__ import annotations

import numpy as np


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
