"""The U-basis expansion machinery: B coefficients three ways, the generating
function, moments, and the exact identities that tie them together.

Run:  python3 demos/02_expansion_and_moments.py
"""

import numpy as np

from gkm import B_from_genfun, ParamSet, Q_poly, density, density_series, moment, residual_id2
from gkm.chebyshev import u_all
from gkm.core import B_prefix
from gkm.oracle import integrate_weighted, unnormalized_factor

p = ParamSet(a=(0.2, -0.3, 0.5))

print("B coefficients: closed form vs generating-function division vs quadrature")
closed = B_prefix(p, 6).values
genfun = B_from_genfun(p, 6).values

unnormalized = unnormalized_factor(p)


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

print("\nAlternating S*B identity residuals (exact up to rounding):")
for m in (1, 2, 5, 9):
    print(f"  m={m}: {residual_id2(m, p):.2e}")
