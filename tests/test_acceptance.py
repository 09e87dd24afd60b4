"""Acceptance checklist.

One test per numbered criterion (two of them split into parts a and b).
Each test prints a PASS/FAIL line; run with ``pytest -s
tests/test_acceptance.py`` to see the full table.

Parts 5b and 6b ask questions that the Euler-Lagrange residual cannot settle
on its own, because the exact and the spectral-grid residual routes share
the same shape-equation formula.  Both are answered by
:func:`_relative_first_variation`, which differentiates the functional
itself: it pushes the torus's generating circle out along its normal,
recomputes H and K of the perturbed surface of revolution from the profile,
and integrates E dA and the enclosed volume, with numpy alone.

* ``test_acceptance_5b...`` asks whether the degree-4 mixed family forces
  a1 = 0 where (a^2 - 2r^2)(a^2 - r^2)(5a^2 - 6r^2) vanishes.  It does not:
  at a^2 = 2r^2 and a^2 = (6/5)r^2 the solved family keeps a1 free and its
  member with a1 = 1 is critical for the functional.  "a1 = 0" describes
  only the limit of the generic parametrization at a^2 = 2r^2, whose
  a1-coefficients have a pole there.
* ``test_acceptance_6b...`` checks the printed pressure +2 k_c c0 / r^2 of
  the quadratic membrane family.  That value is the multiplier of +V: the
  functional integral E dA + P V is stationary at P = +2 k_c c0 / r^2 and not
  at the opposite sign.  The package writes the functional as
  integral E dA - p V with p the inside-minus-outside pressure, so its
  solved p is -2 k_c c0 / r^2, the value with which the printed tension
  relation of 6a holds.
"""

import math
import random
from fractions import Fraction

import numpy as np

from torusvar.critical_solver import (
    solve_pure_h,
    solve_with_gauss,
    verify_solution,
)
from torusvar.energetics import (
    Perturbation,
    curvature_energy,
    second_variation,
    willmore_scan,
)
from torusvar.exact_algebra import HPoly, LinearForm, solve_linear_system
from torusvar.h_calculus import (
    ExactTorus,
    divbar_bilinear,
    divbar_h,
    divbar_k,
    divbar_poly,
    grad_h_squared,
    laplacian_h,
    laplacian_poly,
)
from torusvar.shape_equation import (
    HelfrichParams,
    Lagrangian,
    el_residual,
    helfrich_lagrangian,
    sphere_residual,
)
from torusvar.torus_geometry import (
    TorusShape,
    area_volume,
    curvatures,
    divbar_numeric,
    grid_nodes,
    lb_numeric,
    spectral_derivative,
)

from oracles import (
    area_part_and_volume,
    constraint_ratio,
    laplacian_pow_leading_coeffs,
    second_difference,
    substitute,
)

PI2 = math.pi**2


def report(line):
    print(f"\nACCEPTANCE {line}")


def form(terms, const=0):
    return LinearForm(terms, const)


# -------------------------------------------------------------------- 1 ---


def test_acceptance_1_constraint_formula():
    for n in range(2, 11):
        assert solve_pure_h(n, 1).constraint == Fraction(n * n - n, n * n - n - 1)
    listed = {2: Fraction(2), 3: Fraction(6, 5), 4: Fraction(12, 11), 5: Fraction(20, 19), 6: Fraction(30, 29)}
    for n, value in listed.items():
        assert constraint_ratio(n) == value
        assert solve_pure_h(n, 1).constraint == value
    report("1: PASS - ratio constraint (n^2-n)/(n^2-n-1) exact for n = 2..10")


# -------------------------------------------------------------------- 2 ---


def _verify_family(rep, values, grid=256, torus=None):
    torus = torus or rep.exact_torus()
    result = verify_solution(torus, rep, values, grid)
    assert result.exact
    assert result.numeric_relative < 1e-8
    return result


def test_acceptance_2_golden_families():
    # first order: no restriction on the radii
    rep = solve_pure_h(1, Fraction(1))
    assert rep.constraint is None
    assert rep.assignments["p"] == form({"a1": -1})
    assert rep.assignments["a2"] == form({"a1": -1})

    # second order: Clifford ratio
    rep = solve_pure_h(2, 1)
    assert rep.constraint == 2
    assert rep.assignments["p"] == form({"a2": -1})
    assert rep.assignments["a3"] == form({"a2": -1})
    _verify_family(rep, {"a1": Fraction(1), "a2": Fraction(2)})

    # third order; the pressure sign is recomputed (flagged misprint), the
    # family passes both residual oracles
    rep = solve_pure_h(3, 1)
    assert rep.constraint == Fraction(6, 5)
    assert rep.assignments["a2"] == form({"a1": Fraction(15, 2)})
    assert rep.assignments["a4"] == form({"a1": 2, "a3": -1})
    assert rep.assignments["p"] == form({"a1": 3, "a3": -1})
    _verify_family(rep, {"a1": Fraction(1), "a3": Fraction(-2)})

    # degree-3 family with K^2 and H K terms at the same ratio
    rep = solve_with_gauss(3, 1, a2=Fraction(6, 5))
    assert rep.assignments["p"] == form({"a1": Fraction(21, 2), "a2": -1, "a3": -1})
    assert rep.assignments["a6"] == form({"a1": Fraction(15, 2), "a2": -1})
    assert rep.assignments["a5"] == form({"a1": Fraction(-15, 8), "a2": Fraction(1, 4)})
    assert rep.assignments["a4"] == form({"a1": Fraction(61, 8), "a2": Fraction(-3, 4), "a3": -1})
    _verify_family(rep, {"a1": Fraction(1), "a2": Fraction(1), "a3": Fraction(1)})

    # degree-4 family without the H^2 K term: the 12/11 constraint returns,
    # and on the worked a2 = 23 a1/r slice the whole display reproduces
    rep = solve_with_gauss(4, 1, kterms=((0, 2), (1, 1)))
    assert rep.constraint == Fraction(12, 11)
    slice_sub = {"a2": form({"a1": 23})}
    assert substitute(rep.assignments["a7"], slice_sub) == form({"a1": Fraction(783, 5), "a3": -1})
    assert substitute(rep.assignments["a6"], slice_sub) == form({"a1": Fraction(-783, 20), "a3": Fraction(1, 4)})
    assert substitute(rep.assignments["a5"], slice_sub) == form({"a1": Fraction(3369, 20), "a3": Fraction(-3, 4), "a4": -1})
    assert substitute(rep.assignments["p"], slice_sub) == form({"a1": Fraction(1168, 5), "a3": -1, "a4": -1})
    _verify_family(rep, {"a1": Fraction(1), "a2": Fraction(23), "a3": Fraction(0), "a4": Fraction(1)})

    # fourth order pure H (r = 2 exercises the radius powers)
    rep = solve_pure_h(4, 2)
    assert rep.constraint == Fraction(12, 11)
    assert rep.assignments["a2"] == form({"a1": Fraction(23, 2)})
    assert rep.assignments["a3"] == form({"a1": Fraction(783, 20)})
    assert rep.assignments["a5"] == form({"a1": Fraction(51, 16), "a4": Fraction(-1, 2)})
    assert rep.assignments["p"] == form({"a1": Fraction(77, 32), "a4": Fraction(-1, 4)})
    _verify_family(rep, {"a1": Fraction(1), "a4": Fraction(0)}, grid=512)

    # fifth order (includes the quoted a4 = 715045 a1 / (126 r^3))
    rep = solve_pure_h(5, 1)
    assert rep.assignments["a2"] == form({"a1": 50})
    assert rep.assignments["a3"] == form({"a1": Fraction(12035, 14)})
    assert rep.assignments["a4"] == form({"a1": Fraction(715045, 126)})
    assert rep.assignments["a6"] == form({"a1": Fraction(13848, 7), "a5": -1})
    assert rep.assignments["p"] == form({"a1": Fraction(41915, 14), "a5": -1})
    _verify_family(rep, {"a1": Fraction(1), "a5": Fraction(3)}, grid=512)

    # sixth order; the pressure numerator is recomputed (flagged misprint)
    rep = solve_pure_h(6, 1)
    assert rep.assignments["a2"] == form({"a1": Fraction(183, 2)})
    assert rep.assignments["a3"] == form({"a1": Fraction(6235, 2)})
    assert rep.assignments["a4"] == form({"a1": Fraction(1534015, 32)})
    assert rep.assignments["a5"] == form({"a1": Fraction(139780065, 448)})
    assert rep.assignments["a7"] == form({"a1": Fraction(1796815, 16), "a6": -1})
    assert rep.assignments["p"] == form({"a1": Fraction(5444813, 32), "a6": -1})
    _verify_family(rep, {"a1": Fraction(1), "a6": Fraction(0)}, grid=512)

    # fifth-order mixed families at the two degenerate radii; the worked
    # displays fail both residual oracles, so the recomputed families carry
    # the criterion: every member must verify exactly
    case1 = solve_with_gauss(5, 1, a2=Fraction(2))
    assert case1.assignments["a9"] == form({"a1": Fraction(-3, 2)})
    assert case1.assignments["a10"] == form({"a1": Fraction(-7, 4), "a3": -1})
    assert "a2" in case1.free_parameters
    _verify_family(case1, {name: Fraction(1) for name in case1.free_parameters})

    case2 = solve_with_gauss(5, 1, a2=Fraction(6, 5))
    assert case2.assignments["a9"] == form({"a1": Fraction(-7, 6)})
    _verify_family(case2, {name: Fraction(2) for name in case2.free_parameters})

    report("2: PASS - printed families reproduced where internally consistent; "
           "flagged misprints recomputed and residual-verified")


# -------------------------------------------------------------------- 3 ---


def test_acceptance_3_energies():
    expected = {
        2: 2 * PI2,
        3: 9 * math.sqrt(5) * PI2,
        4: 666 * math.sqrt(11) / 5 * PI2,
        5: 235750 * math.sqrt(19) / 63 * PI2,
        6: 37643625 * math.sqrt(29) / 224 * PI2,
    }
    for degree, value in expected.items():
        rep = solve_pure_h(degree, 1)
        values = {name: Fraction(0) for name in rep.free_parameters}
        values["a1"] = Fraction(1)
        other = [f for f in rep.free_parameters if f != "a1"]
        if other:
            p_form = rep.assignments["p"]
            values[other[0]] = -p_form.coefficient("a1") / p_form.coefficient(other[0])
        lag = rep.lagrangian_at(values)
        assert lag.pressure == 0
        got = curvature_energy(TorusShape.from_ratio(rep.constraint, 1), lag, 0.0, 256)
        assert abs(got.area_term - value) / value < 1e-10
    report("3: PASS - F_2..F_6 match the closed forms to 1e-10 at N = 256")


# -------------------------------------------------------------------- 4 ---


def _acceptance_tori(count=10, seed=424242):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        ratio = Fraction(rng.randint(23, 80), 20)
        out.append(ExactTorus(ratio * r * r, r))
    return out


def test_acceptance_4_identity_oracle_suite():
    for torus in _acceptance_tori():
        shape = torus.to_shape()
        u = grid_nodes(256)
        h, k = curvatures(shape, u)
        r = float(torus.r)
        df = spectral_derivative(h)
        idx = np.arange(0, 256, 4)  # 64 samples

        def check(closed, grid_values):
            exact = np.array([closed.eval_float(x) for x in h[idx]])
            scale = max(1.0, float(np.max(np.abs(grid_values[idx]))))
            assert float(np.max(np.abs(exact - grid_values[idx]))) / scale < 1e-9

        check(laplacian_h(torus), lb_numeric(shape, h))
        check(grad_h_squared(torus), df * df / r**2)
        for n in range(2, 7):
            check(laplacian_poly(torus, HPoly.monomial(n)), lb_numeric(shape, h**n))
        check(divbar_h(torus), divbar_numeric(shape, h))
        check(divbar_k(torus), divbar_numeric(shape, k))
        check(divbar_bilinear(torus), k * df * df / r)
        for n in range(2, 6):
            check(divbar_poly(torus, HPoly.monomial(n)), divbar_numeric(shape, h**n))

        for n in range(2, 11):
            poly = laplacian_poly(torus, HPoly.monomial(n))
            top, sub = laplacian_pow_leading_coeffs(torus, n)
            assert poly.coeffs[n + 2] == top
            assert poly.coeffs[n + 1] == sub
    report("4: PASS - closed forms match the grid oracle (rel < 1e-9) on 10 random "
           "tori; leading coefficients exact for n = 2..10")


# -------------------------------------------------------------------- 5 ---


def test_acceptance_5a_theorem2_families_at_arbitrary_radii():
    rng = random.Random(55)
    checked = 0
    while checked < 20:
        ratio = Fraction(rng.randint(21, 120), 20)
        r = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        a2 = ratio * r * r
        r2 = r * r
        if (a2 - 2 * r2) * (a2 - r2) * (5 * a2 - 6 * r2) == 0:
            continue
        rep = solve_with_gauss(4, r, a2=a2)
        assert rep.consistent
        assert rep.delta != 0 and rep.degeneracy is None
        values = {name: Fraction(rng.randint(-2, 3)) for name in rep.free_parameters}
        values["a1"] = Fraction(1)
        result = verify_solution(rep.exact_torus(), rep, values, 384)
        assert result.exact
        checked += 1

    for a2 in (Fraction(2), Fraction(6, 5)):
        rep = solve_with_gauss(4, 1, a2=a2)
        assert rep.delta == 0
        assert rep.degeneracy is not None and rep.degeneracy.vanished
    report("5a: PASS - 20 random radii solve exactly; delta_4 = 0 reported at "
           "a^2 = 2r^2 and a^2 = (6/5)r^2")


# The first-variation oracle shares no code with the residual assembly: it
# reads only the Lagrangian's terms.  A relative first variation below
# FIRST_VARIATION_TOL means critical; at n = 512, step = 1e-4 the critical
# members below measure 3e-13 to 5e-11 and the non-critical controls 1.9e-2
# or more.
FIRST_VARIATION_TOL = 1e-8


def _relative_first_variation(lagrangian, a, r, volume_multiplier, n=512, step=1e-4):
    """Largest |dF/d eps| of F = integral E dA + volume_multiplier * V over the
    normal perturbations eps * cos(j u), j = 0..3, relative to the largest
    |d/d eps| of the area part alone (fourth-order central differences)."""
    weights = {2: -1.0, 1: 8.0, -1: -8.0, -2: 1.0}
    area_slopes, total_slopes = [], []
    for j in range(4):
        d_area = d_volume = 0.0
        for s, weight in weights.items():
            area_part, volume = area_part_and_volume(lagrangian, a, r, s * step, j, n)
            d_area += weight * area_part / (12.0 * step)
            d_volume += weight * volume / (12.0 * step)
        area_slopes.append(d_area)
        total_slopes.append(d_area + volume_multiplier * d_volume)
    return max(map(abs, total_slopes)) / max(map(abs, area_slopes))


def test_acceptance_5b_degenerate_radii_force_a1_to_zero():
    # The question: is a1 forced to zero where delta_4 = 0?  The solver keeps
    # a1 free at both radii, and the oracle above (not verify_solution, which
    # shares the Euler-Lagrange formula) finds the a1 = 1 member critical,
    # while the same member with its pressure shifted by 1 is not.  So a1 is
    # not forced to zero; only the generic parametrization degenerates.
    outcomes = []
    for a2 in (Fraction(2), Fraction(6, 5)):
        rep = solve_with_gauss(4, 1, a2=a2)
        assert "a1" in rep.free_parameters, (a2, rep.free_parameters)
        lag = rep.lagrangian_at({name: Fraction(1) for name in rep.free_parameters})
        a, r = math.sqrt(a2), 1.0
        member = _relative_first_variation(lag, a, r, -float(lag.pressure))
        control = _relative_first_variation(lag, a, r, -float(lag.pressure + 1))
        outcomes.append((a2, f"{member:.1e}", f"{control:.1e}"))
        assert member < FIRST_VARIATION_TOL, (a2, member)
        assert control > 1e-3, (a2, control)
    report(
        "5b: PASS - a1 is not forced to zero: at a^2 = 2r^2 and (6/5)r^2 the "
        "a1 = 1 member is critical for the functional (a^2, member, p+1 "
        f"control): {outcomes}"
    )


# -------------------------------------------------------------------- 6 ---


def _quadratic_family_relations():
    """Solved pressure and tension for the quadratic membrane family."""
    k_c, c0 = Fraction(3, 2), Fraction(5, 7)
    r = Fraction(1, 2)
    rep = solve_pure_h(2, r)
    a2 = 2 * k_c * c0
    pressure = rep.assignments["p"].evaluate({"a1": 2 * k_c, "a2": a2})
    a3 = rep.assignments["a3"].evaluate({"a1": 2 * k_c, "a2": a2})
    # a3 = k_c c0^2/2 + w fixes the tension
    w = a3 - Fraction(1, 2) * k_c * c0 * c0
    return k_c, c0, r, pressure, w


def test_acceptance_6a_helfrich_relations_and_sphere():
    k_c, c0, r, pressure, w = _quadratic_family_relations()
    # solved pressure is -a2/r^2 = -2 k_c c0 / r^2 ...
    assert pressure == -2 * k_c * c0 / r**2
    # ... and the tension relation holds exactly with that pressure
    assert w == pressure * r * (1 + Fraction(1, 4) * r * c0)

    # sphere residual reproduces the quadratic shape relation: zero exactly
    # when p - 2wH + k_c (2H + c0)(2H^2 - c0 H - 2K) vanishes at H = 1/R
    rng = random.Random(66)
    for _ in range(12):
        params = HelfrichParams(
            k_c=Fraction(rng.randint(1, 5), rng.randint(1, 2)),
            c0=Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            w=Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            p=Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        radius = Fraction(rng.randint(1, 6), rng.randint(1, 2))
        h = 1 / radius
        k = h * h
        relation = params.p - 2 * params.w * h + params.k_c * (2 * h + params.c0) * (
            2 * h * h - params.c0 * h - 2 * k
        )
        residual = sphere_residual(radius, helfrich_lagrangian(params), params.p)
        assert residual == 2 * relation
        assert (residual == 0) == (relation == 0)
    report("6a: PASS - tension relation w = p r (1 + r c0/4) exact with the solved "
           "pressure; sphere residual is exactly twice the quadratic shape relation")


def test_acceptance_6b_helfrich_pressure_printed_sign():
    # The printed p = +2 k_c c0 / r^2 is the multiplier of +V: integral E dA
    # + P V is stationary at that P and not at its negative.  The package's
    # p multiplies -V (inside-minus-outside pressure), so it must be -P.
    # Only the abstract is in PAPER.md and it states no volume term, so the
    # repository cannot tell which of the printed pressure and tension
    # relations carries the sign slip; 6a checks the tension relation in the
    # package's convention.
    k_c, c0, r, pressure, _ = _quadratic_family_relations()
    printed = 2 * k_c * c0 / r**2
    rep = solve_pure_h(2, r)
    lag = rep.lagrangian_at({"a1": 2 * k_c, "a2": 2 * k_c * c0})
    a = math.sqrt(rep.constraint) * float(r)
    at_printed = _relative_first_variation(lag, a, float(r), float(printed))
    at_opposite = _relative_first_variation(lag, a, float(r), -float(printed))
    assert at_printed < FIRST_VARIATION_TOL, at_printed
    assert at_opposite > 1e-3, at_opposite
    assert pressure == -printed
    report(
        f"6b: PASS - integral E dA + P V is stationary at the printed P = {printed} "
        f"(relative first variation {at_printed:.1e}; {at_opposite:.1e} at -P); "
        f"the package's pressure, the multiplier of -V, is {pressure} = -P"
    )


def test_second_variation_matches_the_functional_at_the_helfrich_member():
    # The second difference of integral E dA - p V along eps * cos(j u), from
    # the first-variation oracle's profile code, against second_variation at
    # v_mode = 0 on the 6a member at its solved pressure.  Its first-order
    # cross terms pair gradients as div_bar does; pairing them through the
    # metric alone misses by 8e-2 to 2e-1 for j = 1..3.
    k_c, c0, r, pressure, _ = _quadratic_family_relations()
    lag = solve_pure_h(2, r).lagrangian_at({"a1": 2 * k_c, "a2": 2 * k_c * c0})
    a2 = 2 * r * r
    a, n = math.sqrt(a2), 512
    shape = ExactTorus(a2, r).to_shape()
    for j in range(4):
        second = second_difference(lag, pressure, a, float(r), j, n)
        form = second_variation(shape, lag, float(pressure), Perturbation({j: 1.0}), n)
        assert abs(form - second) / abs(second) < 1e-7, (j, form, second)


# -------------------------------------------------------------------- 7 ---


def test_acceptance_7_property_suite():
    rng = random.Random(77)

    # pure-K invariance of the residual, exact
    for _ in range(5):
        torus = ExactTorus(Fraction(rng.randint(25, 70), 20), 1)
        terms = {(k, 0): Fraction(rng.randint(-4, 4)) for k in range(4)}
        terms[(1, 1)] = Fraction(rng.randint(-4, 4))
        base = Lagrangian(terms, Fraction(1, 3))
        augmented = Lagrangian({**terms, (0, 1): Fraction(rng.randint(1, 9))}, Fraction(1, 3))
        assert el_residual(torus, base) == el_residual(torus, augmented)

    # parallelogram law of the second-variation quadratic form, 1e-9
    lag = Lagrangian.pure_h({2: 1})
    t = TorusShape.from_ratio(2, 1)
    w1 = Perturbation({1: 1.0, 2: -0.3})
    w2 = Perturbation({3: 0.8}, {1: 0.5})
    w_sum = Perturbation({1: 1.0, 2: -0.3, 3: 0.8}, {1: 0.5})
    w_diff = Perturbation({1: 1.0, 2: -0.3, 3: -0.8}, {1: -0.5})
    lhs = second_variation(t, lag, 0.0, w_sum) + second_variation(t, lag, 0.0, w_diff)
    rhs = 2 * second_variation(t, lag, 0.0, w1) + 2 * second_variation(t, lag, 0.0, w2)
    assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-9

    # scale invariance of the bending energy, 1e-10
    e1 = willmore_scan([TorusShape.from_ratio(Fraction(5, 2), 1)])[0][1]
    e3 = willmore_scan([TorusShape.from_ratio(Fraction(5, 2), 3)])[0][1]
    assert abs(e1 - e3) / e1 < 1e-10

    # quadrature self-convergence of every family energy, 1e-11 relative
    for degree in range(2, 7):
        rep = solve_pure_h(degree, 1)
        values = {name: Fraction(0) for name in rep.free_parameters}
        values["a1"] = Fraction(1)
        lag_n = rep.lagrangian_at(values)
        shape = TorusShape.from_ratio(rep.constraint, 1)
        fine = curvature_energy(shape, lag_n, 0.0, 512).area_term
        base = curvature_energy(shape, lag_n, 0.0, 256).area_term
        assert abs(fine - base) / abs(fine) < 1e-11

    # kernel re-substitution, exact: each free unknown's coefficients in the
    # solved assignments are a kernel vector
    for _ in range(25):
        unknowns = [f"x{i}" for i in range(rng.randint(2, 5))]
        rows = [
            LinearForm({u: Fraction(rng.randint(-5, 5)) for u in unknowns})
            for _ in range(rng.randint(1, 4))
        ]
        solution = solve_linear_system(rows, unknowns)
        for free in solution.free:
            assignment = {u: solution.assignments[u].coefficient(free) for u in unknowns}
            assert all(row.evaluate(assignment) == 0 for row in rows)

    report("7: PASS - K-term invariance exact, parallelogram 1e-9, scale "
           "invariance 1e-10, quadrature self-convergence 1e-11, kernel exact")


# -------------------------------------------------------------------- 8 ---


def test_acceptance_8_membrane_diagnostics():
    v = area_volume(TorusShape.from_ratio(2, 1)).reduced_volume
    assert abs(2.0 - 1.0 / (1.94 * v**4)) / 2.0 < 0.01
    assert abs(1.0 / (16 * PI2 / 81 * v**4) - 2.0) < 1e-12
    measured = 1.43 * 1.43
    assert float(f"{measured:.3g}") == 2.04
    report("8: PASS - reduced-volume relations: 1% against the rounded constant, "
           "1e-12 against 16 pi^2/81; a/r = 1.43 gives 2.04")
