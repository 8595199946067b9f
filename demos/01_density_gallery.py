"""Tour of the density family: semicircle, one-parameter tilts, the classical
Kesten-McKay member, and the scaling law.

Run:  python3 demos/01_density_gallery.py
"""

import numpy as np

import math

from gkm import ParamSet, density
from gkm.core import normalizer

xs = np.linspace(-0.99, 0.99, 5)

print("Wigner semicircle (no parameters):")
print("  x      :", np.round(xs, 3))
print("  f(x)   :", np.round(density(ParamSet(), xs), 6))

print("\nOne parameter a = 0.6 tilts mass toward +1:")
p = ParamSet(a=(0.6,))
print("  f(x)   :", np.round(density(p, xs), 6))
print("  A_1    :", normalizer(p))

print("\nThree parameters, normalizer from the cancellation-free closed form:")
p3 = ParamSet(a=(0.1, 0.2, 0.3))
print("  A_3    :", normalizer(p3), " (= (1-0.02)(1-0.03)(1-0.06))")

print("\nClassical Kesten-McKay (v = 5) equals the symmetric pair (a, -a):")
a = 0.5
v = 1.0 + 1.0 / a ** 2
pair = ParamSet(a=(a, -a), c=2.0 / a)
for x in (-1.5, 0.0, 2.0):
    # the classical density v sqrt(4(v-1) - x^2) / (2 pi (v^2 - x^2)) on |x| <= 2 sqrt(v-1)
    classical = v * math.sqrt(4.0 * (v - 1.0) - x * x) / (2.0 * math.pi * (v * v - x * x))
    print(f"  x={x:5.2f}  pair form {density(pair, x):.8f}  classical {classical:.8f}")

print("\nScaling law: the c = 2 density is the c = 1 density squeezed by 1/c:")
pc = ParamSet(a=(0.3,), c=2.0)
x = 0.8
print(f"  f_c(0.8) = {density(pc, x):.8f}   f_1(0.4)/2 = {density(ParamSet(a=(0.3,)), x / 2.0) / 2.0:.8f}")
