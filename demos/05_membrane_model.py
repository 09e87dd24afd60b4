"""Quadratic membrane model: parameter relations and diagnostics.

The quadratic density (k_c/2)(2H + c0)^2 + w is the degree-2 case of the
general machinery.  Solving the torus criticality system expresses the
pressure and tension through k_c, c0 and r; a sphere is critical exactly
when the constant-curvature algebraic relation holds.  The reduced volume v
of a torus fixes its aspect ratio: a^2/r^2 = 1/((16 pi^2/81) v^4), the
relation to the sphericity parameter used for vesicles.
"""

import math
from fractions import Fraction

from torusvar.critical_solver import solve_pure_h
from torusvar.h_calculus import TorusShape
from torusvar.shape_equation import helfrich_lagrangian, sphere_residual
from torusvar.torus_geometry import area_volume

k_c, c0 = Fraction(1), Fraction(1, 3)
rep = solve_pure_h(2, 1)
a2 = 2 * k_c * c0
pressure = rep.assignments["p"].evaluate({"a1": 2 * k_c, "a2": a2})
a3 = rep.assignments["a3"].evaluate({"a1": 2 * k_c, "a2": a2})
w = a3 - Fraction(1, 2) * k_c * c0**2
print(f"quadratic family on the ratio-2 torus, k_c={k_c}, c0={c0}:")
print(f"  pressure  p = {pressure}   (equals -2 k_c c0 / r^2)")
print(f"  tension   w = {w}   (equals p r (1 + r c0 / 4): {pressure * (1 + c0 / 4)})")

print("\nsphere criticality (k_c=1, c0=-2, w=1, p=2):")
lag = helfrich_lagrangian(k_c=1, c0=Fraction(-2), w=Fraction(1), p=Fraction(2))
for radius in (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3)):
    res = sphere_residual(radius, lag)
    print(f"  R = {radius}: residual {res}{'  (critical)' if res == 0 else ''}")

print("\nreduced volume v and the aspect ratio 1/((16 pi^2/81) v^4) it implies:")
seifert = 16 * math.pi**2 / 81
for ratio in (Fraction(2), Fraction(3), Fraction(2049, 1000)):
    v = area_volume(TorusShape.from_ratio(ratio, 1)).reduced_volume
    print(f"  a^2/r^2 = {float(ratio):6.3f}: v = {v:.4f}, 1/((16 pi^2/81) v^4) = {1 / (seifert * v**4):.6f}")
print("\nthe measured vesicle value a/r = 1.43 corresponds to a^2/r^2 =", f"{1.43**2:.4f}")
