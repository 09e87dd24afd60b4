"""Quadrature energies of the critical families and the bending-energy scan.

The zero-pressure member of each family has a closed-form energy involving
a square root of the constrained ratio's denominator; spectrally accurate
quadrature reproduces each to machine precision.  A scan over aspect ratios
shows the quadratic (bending) energy minimized at the ratio 2 torus with
value 2 pi^2.
"""

import math
from fractions import Fraction

from torusvar.critical_solver import solve_pure_h
from torusvar.energetics import curvature_energy, willmore_scan
from torusvar.h_calculus import TorusShape

PI2 = math.pi**2
closed_forms = {
    2: ("2 pi^2", 2 * PI2),
    3: ("9 sqrt(5) pi^2", 9 * math.sqrt(5) * PI2),
    4: ("(666 sqrt(11)/5) pi^2", 666 * math.sqrt(11) / 5 * PI2),
    5: ("(235750 sqrt(19)/63) pi^2", 235750 * math.sqrt(19) / 63 * PI2),
    6: ("(37643625 sqrt(29)/224) pi^2", 37643625 * math.sqrt(29) / 224 * PI2),
}

for degree, (label, value) in closed_forms.items():
    rep = solve_pure_h(degree, 1)
    values = {name: Fraction(0) for name in rep.free_parameters}
    values["a1"] = Fraction(1)
    other = [f for f in rep.free_parameters if f != "a1"]
    if other:
        p = rep.assignments["p"]
        values[other[0]] = -p.coefficient("a1") / p.coefficient(other[0])
    lag = rep.lagrangian_at(values)
    t = TorusShape.from_ratio(rep.constraint, 1)
    got = curvature_energy(t, lag).area_term
    print(f"F_{degree} = {got:18.10f}   {label} = {value:18.10f}   rel err {abs(got - value) / value:.1e}")

print("\nbending energy over aspect ratios (minimum at ratio 2):")
ratios = [Fraction(p, 10) for p in (12, 15, 18, 20, 22, 25, 30, 40)]
for shape, energy in willmore_scan([TorusShape.from_ratio(q, 1) for q in ratios]):
    marker = "  <-- 2 pi^2" if abs(energy - 2 * PI2) < 1e-9 else ""
    print(f"  a^2/r^2 = {shape.ratio:5.2f}   integral H^2 dA = {energy:.8f}{marker}")
