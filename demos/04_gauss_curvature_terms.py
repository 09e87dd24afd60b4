"""Removing the aspect-ratio constraint with Gaussian curvature terms.

Mixing K^m H^k terms into the degree-4 density makes the torus critical at
arbitrary radii: the solver returns an exact family at whatever a^2 is
requested.  At a^2 = 2 r^2 the generic parametrization degenerates (the
radii polynomial delta_4 vanishes and the bound/free split changes), and
dropping the H^2 K term reinstates the pure-degree-4 ratio 12/11.
"""

from fractions import Fraction

from torusvar.critical_solver import solve_with_gauss, verify_solution
from torusvar.exact_algebra import format_fraction


def describe(rep, label):
    print(f"\n{label}")
    if rep.constraint is not None:
        print(f"  constraint a^2/r^2 = {format_fraction(rep.constraint)}")
    if rep.delta is not None:
        print(f"  radii polynomial delta = {format_fraction(rep.delta)}")
    if rep.degeneracy is not None:
        print(f"  degenerate: {rep.degeneracy.note}")
    print(f"  free parameters: {', '.join(rep.free_parameters)}")
    bound = [n for n in rep.unknowns if n not in rep.free_parameters]
    for name in bound:
        terms = " + ".join(
            f"({format_fraction(c)})*{p}" for p, c in sorted(rep.assignments[name].terms.items())
        )
        print(f"  {name} = {terms or '0'}")
    values = {name: Fraction(1) for name in rep.free_parameters}
    check = verify_solution(rep.exact_torus(), rep, values, n_grid=384)
    print(f"  verified: exact={check.exact}, relative grid residual {check.numeric_relative:.1e}")


describe(solve_with_gauss(4, 1, a2=Fraction(3)), "degree 4 with K^2, HK, H^2K at a^2 = 3")
describe(solve_with_gauss(4, 1, a2=Fraction(7, 2)), "same family at a^2 = 7/2")
describe(solve_with_gauss(4, 1, a2=Fraction(2)), "same family at the degenerate a^2 = 2")
describe(
    solve_with_gauss(4, 1, kterms=((0, 2), (1, 1))),
    "degree 4 without the H^2K term: the ratio constraint returns",
)
describe(solve_with_gauss(5, 1, a2=Fraction(2)), "degree 5 mixed family at a^2 = 2")
