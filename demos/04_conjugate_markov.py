"""The conjugate-pair branch: the w kernel, Poisson-Mehler summation, the
bivariate/trivariate densities, and the Markov structure they carry.

Run:  python3 demos/04_conjugate_markov.py
"""

import numpy as np

from gkm import (
    A2k_closed,
    ConjParamSet,
    chapman_residual,
    f2M,
    fM_density,
    g3,
    poisson_mehler,
    w_eval,
)
from gkm.oracle import integrate_2d, integrate_3d, normalizer_numeric

print("Poisson-Mehler: the series sum_j rho^j U_j(x)U_j(y) has a closed form:")
for (x, y, rho) in ((0.2, 0.4, 0.5), (0.0, 0.0, 0.5), (-0.8, 0.9, -0.7)):
    series = poisson_mehler(x, y, rho, 1e-12)
    closed = (1.0 - rho ** 2) / w_eval(x, y, rho)
    print(f"  (x,y,rho)=({x:5.2f},{y:5.2f},{rho:5.2f})  series {series:.10f}  closed {closed:.10f}")

print("\nClosed normalizers vs the quadrature oracle:")
for k, (rho, y) in enumerate((((0.5,), (0.3,)), ((0.4, -0.6), (0.1, 0.8)), ((0.4, -0.5, 0.3), (0.1, 0.6, -0.2))), 1):
    p = ConjParamSet(rho=rho, y=y)
    print(f"  k={k}: closed {A2k_closed(p):.10f}   numeric {normalizer_numeric(p):.10f}")

print("\nDensity with one pair at x=0.25:", fM_density(ConjParamSet(rho=(0.6,), y=(-0.3,)), 0.25))

print("\nChapman-Kolmogorov: composing rho1 and rho2 kernels gives the rho1*rho2 kernel:")
for (x, y2, r1, r2) in ((0.3, -0.5, 0.4, 0.6), (-0.2, 0.7, -0.8, 0.5)):
    print(f"  residual at ({x},{y2},{r1},{r2}): {abs(chapman_residual(x, y2, r1, r2)):.2e}")

print("\nBivariate density: unit mass and cross moment E[XY] = rho/4:")
rho = 0.5
mass = integrate_2d(lambda x, y: f2M(x, y, rho), 1e-9).value
xy = integrate_2d(lambda x, y: f2M(x, y, rho) * x * y, 1e-10).value
print(f"  mass {mass:.10f}   E[XY] {xy:.10f}  (rho/4 = {rho / 4})")

print("\nTrivariate density integrates to one (periodic trapezoid rule on two shifted grids):")
res = integrate_3d(lambda a, b, c: g3(a, b, c, 0.5, -0.4, 0.3), 1e-7)
print(f"  mass {res.value:.8f}  (error estimate {res.abs_error_estimate:.1e})")
