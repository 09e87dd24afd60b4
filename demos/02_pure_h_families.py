"""Critical families for pure mean-curvature polynomials.

For each degree n, the torus is a critical point of the associated
functional only at one aspect ratio a^2/r^2 = (n^2-n)/(n^2-n-1); the solver
derives that ratio from the top residual row and then solves the remaining
linear system exactly.  Every family is re-verified through the independent
spectral-grid residual.
"""

from fractions import Fraction

from torusvar.critical_solver import solve_pure_h, verify_solution
from torusvar.exact_algebra import format_fraction
from torusvar.h_calculus import ExactTorus


def show(form):
    bits = [f"({format_fraction(c)})*{name}" for name, c in sorted(form.terms.items())]
    return " + ".join(bits) if bits else "0"


for n in range(1, 7):
    rep = solve_pure_h(n, 1)
    print(f"\ndegree {n}:")
    if rep.constraint is None:
        print("  no restriction on the radii")
    else:
        print(f"  constraint a^2/r^2 = {format_fraction(rep.constraint)}")
    print(f"  free parameters: {', '.join(rep.free_parameters)}")
    for name in rep.unknowns:
        if name not in rep.free_parameters:
            print(f"  {name} = {show(rep.assignments[name])}")

    values = {name: Fraction(1) for name in rep.free_parameters}
    if rep.a2 is not None:
        torus = rep.exact_torus()
    else:
        torus = ExactTorus(Fraction(3), 1)
    result = verify_solution(torus, rep, values, n_grid=512)
    print(f"  verified: exact={result.exact}, grid residual (relative) = {result.numeric_relative:.2e}")
