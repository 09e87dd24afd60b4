"""Torus geometry and the two second-order operators.

Walks through the basic objects: curvatures of a torus of revolution, the
linear relation between them, area/volume against quadrature, and the
closed-form operator polynomials checked against spectral differentiation.
"""

from fractions import Fraction

import numpy as np

from torusvar.h_calculus import ExactTorus, TorusShape, divbar_h, grad_h_squared, laplacian_h
from torusvar.torus_geometry import area_volume, curvatures, divbar_numeric, grid_nodes, lb_numeric

t = TorusShape(a=2.0, r=1.0)
print("torus a=2, r=1")
for u in (0.0, np.pi / 2, np.pi):
    h, k = curvatures(t, u)
    print(f"  u={u:5.2f}:  H={h:+.6f}  K={k:+.6f}  r^2 K - 2 r H + 1 = {k - 2*h + 1:+.1e}")

av = area_volume(t)
print(f"\narea   closed 8 pi^2  = {av.area:.12f}   quadrature = {av.area_quadrature:.12f}")
print(f"volume closed 4 pi^2  = {av.volume:.12f}   quadrature = {av.volume_quadrature:.12f}")
print(f"reduced volume v = {av.reduced_volume:.6f}")

# the closed-form operator polynomials versus the spectral grid operators
exact = ExactTorus(Fraction(4), 1)
u = grid_nodes(256)
h, _ = curvatures(t, u)

lap_poly = laplacian_h(exact)
print(f"\nlaplacian(H) as a polynomial in H: {[str(c) for c in lap_poly.coeffs]}")
lap_grid = lb_numeric(t, h)
err = max(abs(lap_poly.eval_float(x) - y) for x, y in zip(h, lap_grid))
print(f"  max deviation from the spectral operator: {err:.3e}")

grad_poly = grad_h_squared(exact)
print(f"|grad H|^2 as a polynomial in H:  {[str(c) for c in grad_poly.coeffs]}")

dbar_poly_ = divbar_h(exact)
dbar_grid = divbar_numeric(t, h)
err = max(abs(dbar_poly_.eval_float(x) - y) for x, y in zip(h, dbar_grid))
print(f"div_bar(H) polynomial degree {dbar_poly_.degree}, grid deviation {err:.3e}")
