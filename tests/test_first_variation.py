"""The Euler-Lagrange equation against the functional it comes from, off the
critical set: along a normal push phi, dF/d(eps) = -1/2 integral R phi dA.

The acceptance tests check R against F only where R vanishes, so a term of R
that is zero, or off by a factor, on every solved member passes them.  Here
no torus is critical, so each of R's six terms shows in the identity.  The
left side is a fourth-order central difference of F = integral E dA - p V on
the profile-curve oracle of :mod:`oracles`, which recomputes H and K from the
pushed circle and shares no code with the residual; the right side is R from
both residual routes, the exact ``el_residual`` on the grid and the
spectral-grid ``el_residual_numeric_scaled``.  Modes sin(ju) are left out:
by the symmetry u -> -u both sides vanish on them.
"""

from fractions import Fraction

import numpy as np
import pytest

from torusvar.h_calculus import ExactTorus
from torusvar.shape_equation import Lagrangian, el_residual, el_residual_numeric_scaled
from torusvar.torus_geometry import SampledTorus

from oracles import area_part_and_volume

GRID = 512
STEP = 1e-4

# one per term kind: H^i, K^j, H^i K^j, the constant and the pressure
LAGRANGIANS = {
    "H2": Lagrangian({(2, 0): 1}),
    "H3+2/7H": Lagrangian({(3, 0): 1, (1, 0): Fraction(2, 7)}, Fraction(1, 3)),
    "H2K+3K2": Lagrangian({(2, 1): 1, (0, 2): 3}, Fraction(-1, 2)),
    "H4+5HK2+K": Lagrangian({(4, 0): 1, (1, 2): 5, (0, 1): 1}, Fraction(2, 5)),
    "K3-2H3K+1": Lagrangian({(0, 3): 1, (3, 1): -2, (0, 0): 1}, Fraction(1, 4)),
}

TORI = [
    ExactTorus(9, 1),
    ExactTorus(Fraction(289, 100), Fraction(11, 10)),
    ExactTorus(Fraction(121, 25), Fraction(3, 5)),
]


def first_variation(lagrangian: Lagrangian, torus: ExactTorus, mode: int) -> float:
    """dF/d(eps) along eps cos(mode u), by the difference (-1, 8, -8, 1) / (12 h)."""
    shape = torus.to_shape()
    total = 0.0
    for s, weight in {2: -1.0, 1: 8.0, -1: -8.0, -2: 1.0}.items():
        area_part, volume = area_part_and_volume(lagrangian, shape.a, shape.r, s * STEP, mode, GRID)
        total += weight * (area_part - float(lagrangian.pressure) * volume)
    return total / (12.0 * STEP)


@pytest.mark.parametrize("torus", TORI, ids=lambda t: f"a2={t.a2},r={t.r}")
@pytest.mark.parametrize("name", LAGRANGIANS)
def test_the_first_variation_is_minus_half_the_residual_against_the_push(name, torus):
    lagrangian = LAGRANGIANS[name]
    s = SampledTorus(torus.to_shape(), GRID)
    routes = {
        "exact": el_residual(torus, lagrangian).eval_float(s.h),
        "numeric": el_residual_numeric_scaled(s.shape, lagrangian, GRID)[0],
    }
    for mode in range(5):
        first = first_variation(lagrangian, torus, mode)
        # no torus here is critical, so the identity is not 0 = 0
        assert abs(first) > 0.1, mode
        for route, residual in routes.items():
            projected = s.area_integral(residual * np.cos(mode * s.u))
            assert first / projected == pytest.approx(-0.5, rel=1e-7), (route, mode)
