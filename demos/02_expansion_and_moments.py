"""The U-basis expansion machinery: B coefficients three ways, the generating
function, moments, and the exact identities that tie them together.

Run:  python3 demos/02_expansion_and_moments.py
"""

import numpy as np

from gkm import B_from_genfun, ParamSet, Q_poly, density, density_series, elementary_all, moment
from gkm.chebyshev import u_all
from gkm.core import B_prefix
from gkm.oracle import integrate_weighted

p = ParamSet(a=(0.2, -0.3, 0.5))

print("B coefficients: closed form vs generating-function division vs quadrature")
closed = B_prefix(p, 6).values
genfun = B_from_genfun(p, 6).values


def unnormalized(x):
    """g of the density A g(x) (2/pi) sqrt(1 - x^2), 1 / prod_j (1 + a_j^2 - 2 a_j x);
    integrate_weighted supplies the semicircle weight"""
    g = np.ones_like(x)
    for aj in p.a:
        g = g / (1.0 + aj * aj - 2.0 * aj * x)
    return g


from gkm.core import A_closed

A = A_closed(p)
print(f"  {'k':>2} {'closed':>12} {'genfun':>12} {'quadrature':>12}")
for k in range(7):
    quad = A * integrate_weighted(lambda x, k=k: u_all(k, x)[k] * unnormalized(x), 1e-11).value
    print(f"  {k:>2} {closed[k]:>12.8f} {genfun[k]:>12.8f} {quad:>12.8f}")

print("\nGenerating-function numerator Q(t) (degree n-2 after exact cancellation):")
print("  coefficients:", np.round(Q_poly(p), 10))

print("\nMoments from the finite B-weighted sum vs quadrature:")
for k in (1, 2, 3, 4):
    quad = A * integrate_weighted(lambda x, k=k: x ** k * unnormalized(x), 1e-11).value
    print(f"  E X^{k} = {moment(p, k):.10f}   quadrature {quad:.10f}")

print("\nTruncated series density tracks the product form:")
for x in (-0.7, 0.0, 0.9):
    print(f"  x={x:5.2f}  series {density_series(p, x, 1e-10):.10f}  product {density(p, x):.10f}")

print("\nAlternating sums sum_j (-1)^j S_j B_{m-j}, zero up to rounding:")
S = elementary_all(p.a)
B = B_prefix(p, 9).values


def signed_B(i):
    # the signed-U convention: B_{-1} = 0, B_{-k} = -B_{k-2}
    return B[i] if i >= 0 else 0.0 if i == -1 else -B[-i - 2]


for m in (1, 2, 5, 9):
    print(f"  m={m}: {sum((-1) ** j * S[j] * signed_B(m - j) for j in range(len(S))):.2e}")
