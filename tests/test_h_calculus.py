import random
from fractions import Fraction

import numpy as np
import pytest

from torusvar.exact_algebra import HPoly
from torusvar.h_calculus import (
    ExactTorus,
    TorusShape,
    divbar_bilinear,
    divbar_h,
    divbar_k,
    divbar_poly,
    divbar_power,
    grad_h_squared,
    k_as_hpoly,
    laplacian_h,
    laplacian_poly,
    laplacian_power,
)
from torusvar.torus_geometry import (
    curvatures,
    divbar_numeric,
    grid_nodes,
    lb_numeric,
    spectral_derivative,
)

from oracles import (
    add,
    evaluate,
    laplacian_pow_leading_coeffs,
    multiply,
    ref_divbar_poly,
    ref_laplacian_poly,
    scale,
)

CLIFFORD = ExactTorus(Fraction(2), 1)
T21 = ExactTorus(Fraction(4), 1)


def random_exact_tori(count, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        ratio = Fraction(rng.randint(23, 80), 20)
        out.append(ExactTorus(ratio * r * r, r))
    return out


def grid_match(torus, closed, grid_values, h, tol=1e-9, samples=64):
    """Compare a closed-form H-polynomial with grid values at sampled nodes."""
    step = len(h) // samples
    idx = np.arange(0, len(h), step)
    exact = np.array([closed.eval_float(x) for x in h[idx]])
    scale = max(1.0, float(np.max(np.abs(grid_values[idx]))))
    return float(np.max(np.abs(exact - grid_values[idx]))) / scale < tol


def boundary_h_values(t: ExactTorus):
    """H at the two critical angles u = 0 and u = pi, as exact fractions
    of a^2 (usable because H(0), H(pi) satisfy (2rH-1)^2 w^2 = a^2 ...)."""
    import math

    shape = t.to_shape()
    return [curvatures(shape, 0.0)[0], curvatures(shape, math.pi)[0]]


def test_k_as_hpoly_unit_radius():
    assert k_as_hpoly(ExactTorus(Fraction(3), 1)).coeffs == (-1, 2)


def test_k_as_hpoly_radius_two():
    assert k_as_hpoly(ExactTorus(Fraction(17), 2)).coeffs == (Fraction(-1, 4), 1)


def test_k_vanishes_on_top_circle():
    # H(pi/2) = 1/(2r) maps to K = 0
    poly = k_as_hpoly(ExactTorus(Fraction(13, 2), Fraction(3, 2)))
    assert evaluate(poly.coeffs, Fraction(1, 3)) == 0


def test_weingarten_identity_exact_in_h():
    for t in random_exact_tori(5, seed=2):
        k = k_as_hpoly(t)
        identity = add(scale(k.coeffs, t.r2), (1, -2 * t.r))
        assert identity == ()


def test_laplacian_h_at_ratio_four():
    assert laplacian_h(T21).coeffs == (1, -5, 7, -3)


def test_laplacian_h_clifford():
    # specialization of the cubic, cross-checked against the grid oracle below
    assert laplacian_h(CLIFFORD).coeffs == (0, -2, 4, -2)


def test_grad_h_squared_at_ratio_four():
    assert grad_h_squared(T21).coeffs == (0, 2, -7, 8, -3)


def test_grad_h_squared_vanishes_at_critical_angles():
    for t in random_exact_tori(4, seed=5):
        poly = grad_h_squared(t)
        for h0 in boundary_h_values(t):
            assert abs(poly.eval_float(h0)) < 1e-12


def test_laplacian_h_pow_base_case():
    for t in random_exact_tori(3, seed=7):
        assert laplacian_poly(t, HPoly.of([0] * 1 + [1])) == laplacian_h(t)


def test_leading_coefficient_example():
    top, _ = laplacian_pow_leading_coeffs(ExactTorus(Fraction(2), 1), 2)
    assert top == -8


def test_leading_coefficients_closed_form_exact():
    for t in random_exact_tori(4, seed=9):
        for n in range(2, 11):
            poly = laplacian_poly(t, HPoly.of([0] * n + [1]))
            top, sub = laplacian_pow_leading_coeffs(t, n)
            assert poly.coeffs[n + 2] == top
            assert poly.coeffs[n + 1] == sub


def test_chain_rule_consistency_exact():
    # the integer chain rule against the oracle's Fraction one, on 240 random
    # (torus, rational polynomial) pairs; degree -1 is the zero polynomial
    rng = random.Random(12)
    tori = random_exact_tori(40, seed=11)
    for count in range(240):
        t = tori[count % len(tori)]
        degree = count % 9 - 1
        f = HPoly.of(Fraction(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(degree + 1))
        assert laplacian_poly(t, f).coeffs == ref_laplacian_poly(t, f.coeffs)
        assert divbar_poly(t, f).coeffs == ref_divbar_poly(t, f.coeffs)


def test_coefficients_use_only_even_powers_of_large_radius():
    # same a^2 through different (a, r) scalings must give identical output
    t = ExactTorus(Fraction(6, 5), 1)
    for op in (laplacian_h, grad_h_squared, divbar_h, divbar_k, divbar_bilinear):
        for c in op(t).coeffs:
            assert isinstance(c, Fraction)


def test_divbar_k_is_scaled_divbar_h():
    for t in random_exact_tori(5, seed=13):
        assert divbar_k(t).coeffs == scale(divbar_h(t).coeffs, Fraction(2) / t.r)


def test_divbar_h_constant_term_clifford():
    assert divbar_h(CLIFFORD).coeffs[0] == 2


def test_bilinear_vanishes_at_critical_angles():
    for t in random_exact_tori(4, seed=15):
        poly = divbar_bilinear(t)
        for h0 in boundary_h_values(t):
            assert abs(poly.eval_float(h0)) < 1e-12


def test_bilinear_product_identity_exact():
    for t in random_exact_tori(5, seed=17):
        h2 = HPoly.of([0] * 2 + [1])
        lhs = divbar_poly(t, h2).coeffs
        two_h_divbar_h = multiply((0, 2), divbar_h(t).coeffs)
        rhs = add(two_h_divbar_h, scale(divbar_bilinear(t).coeffs, 2))
        assert lhs == rhs
        recovered = scale(add(divbar_poly(t, h2).coeffs, scale(two_h_divbar_h, -1)), Fraction(1, 2))
        assert recovered == divbar_bilinear(t).coeffs


def test_divbar_poly_of_constant_is_zero():
    assert divbar_poly(CLIFFORD, HPoly.of([5])).is_zero


def test_divbar_poly_of_k_matches_divbar_k():
    for t in random_exact_tori(5, seed=19):
        assert divbar_poly(t, k_as_hpoly(t)) == divbar_k(t)


# the Clifford torus, the CLI example, a benchmark pass radius and a wide torus
POWER_TORI = [
    ExactTorus(a2, r)
    for a2, r in ((2, 1), (Fraction(49, 16), Fraction(3, 2)), (Fraction(11767, 3600), Fraction(41, 40)), (9, Fraction(7, 3)))
]


@pytest.mark.parametrize("t", POWER_TORI, ids=repr)
def test_per_power_tables_match_the_general_chain_rule(t):
    # against the reference chain rule on the closed forms of op(H) and B,
    # which shares no code with the per-power tables
    for k in range(25):
        h_k = (0,) * k + (1,)
        for power, ref in ((laplacian_power, ref_laplacian_poly), (divbar_power, ref_divbar_poly)):
            closed = power(t, k)
            assert closed.coeffs == ref(t, h_k), (power.__name__, k)
            # an exact HPoly: Fractions only, and no trailing zero
            assert all(type(c) is Fraction for c in closed.coeffs), (power.__name__, k)
            assert closed.is_zero == (k == 0) and (not closed.coeffs or closed.coeffs[-1] != 0)
    with pytest.raises(ValueError, match="power must be nonnegative"):
        laplacian_power(t, -1)


def test_laplacian_poly_of_linear_matches_laplacian_h():
    for t in random_exact_tori(3, seed=20):
        assert laplacian_poly(t, HPoly.of([0] * 1 + [1])) == laplacian_h(t)


def test_every_closed_form_matches_the_grid_oracle():
    # ten random rational tori, every operator, 64 sample nodes each
    for t in random_exact_tori(10, seed=23):
        shape = t.to_shape()
        u = grid_nodes(256)
        h, k = curvatures(shape, u)
        r = float(t.r)
        df = spectral_derivative(h)

        assert grid_match(t, laplacian_h(t), lb_numeric(shape, h), h)
        assert grid_match(t, grad_h_squared(t), df * df / r**2, h)
        for n in range(2, 7):
            assert grid_match(
                t, laplacian_poly(t, HPoly.of([0] * n + [1])), lb_numeric(shape, h**n), h
            )
        assert grid_match(t, divbar_h(t), divbar_numeric(shape, h), h)
        assert grid_match(t, divbar_k(t), divbar_numeric(shape, k), h)
        assert grid_match(t, divbar_bilinear(t), k * df * df / r, h)
        for n in range(2, 6):
            assert grid_match(
                t,
                divbar_poly(t, HPoly.of([0] * n + [1])),
                divbar_numeric(shape, h**n),
                h,
            )


def test_specific_grid_agreements_from_worked_cases():
    # laplacian(H^3) on the Clifford torus, div_bar(H^3) at ratio 2, both 1e-9
    for t, op_closed, field_power, op_grid in [
        (CLIFFORD, laplacian_poly(CLIFFORD, HPoly.of([0] * 3 + [1])), 3, lb_numeric),
        (ExactTorus(Fraction(3), 1), divbar_poly(ExactTorus(Fraction(3), 1), HPoly.of([0] * 3 + [1])), 3, divbar_numeric),
    ]:
        shape = t.to_shape()
        h, _ = curvatures(shape, grid_nodes(256))
        assert grid_match(t, op_closed, op_grid(shape, h**field_power), h)


def test_exact_torus_validation():
    with pytest.raises(ValueError):
        ExactTorus(Fraction(1), 1)
    with pytest.raises(ValueError):
        ExactTorus(Fraction(4), -1)


def test_exact_torus_rejects_floats():
    # Fraction(2.1) would store a^2 = 4728779608739021/2251799813685248
    for a2, r in ((2.1, 1), (Fraction(4), 1.0)):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            ExactTorus(a2, r)
    assert ExactTorus("21/10", 1).a2 == Fraction(21, 10)


def test_torus_shape_from_ratio_rejects_floats():
    for ratio, r in ((2.5, 1), (Fraction(5, 2), 0.5)):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            TorusShape.from_ratio(ratio, r)
    assert TorusShape.from_ratio(Fraction(5, 2), 2).a2 == 10
