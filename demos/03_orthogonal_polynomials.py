"""The orthogonal polynomial family: coefficients, the Gram matrix computed
without any quadrature, the high-degree Chebyshev-like recurrence, and the
exactly-characterized breakdown of the closed form at low degree.

Run:  python3 demos/03_orthogonal_polynomials.py
"""

import numpy as np

from gkm import P_coeffs, P_recur_check, ParamSet, elementary_all, gram
from gkm.core import B_prefix

p = ParamSet(a=(0.2, -0.4, 0.6))

print("U-basis coefficients of P_0..P_4 for a =", p.a)
for m in range(5):
    print(f"  P_{m}:", np.round(P_coeffs(m, p).series.coeffs, 6))

print("\nGram matrix (bilinear in B, no integration) - diagonal positive,")
print("off-diagonal zero to rounding:")
G = np.array([[gram(m, k, p) for k in range(5)] for m in range(5)])
with np.printoptions(precision=3, suppress=True):
    print(G)

print("\nFor m >= n the family satisfies the plain Chebyshev recurrence:")
for m in (3, 5, 10):
    print(f"  m={m}: residual {abs(P_recur_check(m, p, 0.37)):.2e}")

print("\nLow-degree caveat: with six parameters the truncated degree-1 member")
print("is *not* orthogonal to the constant; the defect is exactly S6*B3 - S5*B2:")
p6 = ParamSet(a=(-0.42, 0.36, -0.79, 0.85, 0.05, -0.56))
S = elementary_all(p6.a)
B = B_prefix(p6, 4).values
print(f"  gram(1,0)        = {gram(1, 0, p6):.12f}")
print(f"  S6*B3 - S5*B2    = {S[6] * B[3] - S[5] * B[2]:.12f}")
print("  (every member with n <= 2m+2 remains exactly orthogonal)")
