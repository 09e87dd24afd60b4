"""Second variation of the bending energy at the ratio-2 critical torus.

Evaluates the quadratic form over single Fourier modes of the normal
perturbation, axisymmetric and azimuthal, and demonstrates the quadratic
structure (parallelogram law) plus grid self-convergence.
"""

from torusvar.energetics import Perturbation, second_variation
from torusvar.h_calculus import TorusShape
from torusvar.shape_equation import Lagrangian

t = TorusShape.from_ratio(2, 1)
bending = Lagrangian.pure_h({2: 1})

print("mode-by-mode values of the quadratic form (cos j u perturbations):")
for j in range(0, 5):
    omega = Perturbation({j: 1.0})
    value = second_variation(t, bending, 0.0, omega)
    print(f"  j = {j}: {value:+.8f}")

print("\nazimuthal extension, cos(j u) cos(m v):")
for m in (1, 2):
    value = second_variation(t, bending, 0.0, Perturbation({1: 1.0}), v_mode=m)
    print(f"  m = {m}: {value:+.8f}")

w1 = Perturbation({1: 1.0})
w2 = Perturbation({}, {2: 0.5})
w_sum = Perturbation({1: 1.0}, {2: 0.5})
w_diff = Perturbation({1: 1.0}, {2: -0.5})
lhs = second_variation(t, bending, 0.0, w_sum) + second_variation(t, bending, 0.0, w_diff)
rhs = 2 * second_variation(t, bending, 0.0, w1) + 2 * second_variation(t, bending, 0.0, w2)
print(f"\nparallelogram law gap: {abs(lhs - rhs):.2e}")

fine = second_variation(t, bending, 0.0, w1, n=256)
coarse = second_variation(t, bending, 0.0, w1, n=128)
print(f"grid self-convergence 128 -> 256: {abs(fine - coarse):.2e}")
