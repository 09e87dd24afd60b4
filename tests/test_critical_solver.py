import random
from fractions import Fraction

import pytest

from torusvar.critical_solver import (
    default_kterms,
    delta_radii_polynomial,
    family_lagrangian,
    solve_pure_h,
    solve_with_gauss,
    theorem_kterms,
    verify_solution,
)
from torusvar.exact_algebra import LinearForm, solve_linear_system
from torusvar.h_calculus import ExactTorus
from torusvar.shape_equation import Lagrangian, el_system

from oracles import constraint_ratio, substitute


def form(terms, const=0):
    return LinearForm(terms, const)


def test_constraint_ratio_values():
    assert constraint_ratio(2) == 2
    assert constraint_ratio(3) == Fraction(6, 5)
    assert constraint_ratio(4) == Fraction(12, 11)
    assert constraint_ratio(5) == Fraction(20, 19)
    assert constraint_ratio(6) == Fraction(30, 29)


def test_constraint_ratio_monotone_decreasing_to_one():
    previous = None
    for n in range(2, 30):
        value = constraint_ratio(n)
        assert 1 < value <= 2
        if previous is not None:
            assert value < previous
        previous = value


def test_constraint_ratio_rejects_low_degree():
    with pytest.raises(ValueError):
        constraint_ratio(1)


def test_first_order_family():
    rep = solve_pure_h(1, 1)
    assert rep.constraint is None and rep.a2 is None
    assert rep.free_parameters == ("a1",)
    assert rep.assignments["p"] == form({"a1": -1})
    assert rep.assignments["a2"] == form({"a1": -1})


def test_first_order_family_general_radius():
    rep = solve_pure_h(1, Fraction(3, 2))
    assert rep.assignments["p"] == form({"a1": Fraction(-4, 9)})
    assert rep.assignments["a2"] == form({"a1": Fraction(-2, 3)})


def test_second_order_family():
    rep = solve_pure_h(2, 1)
    assert rep.constraint == 2
    assert set(rep.free_parameters) == {"a1", "a2"}
    assert rep.assignments["p"] == form({"a2": -1})
    assert rep.assignments["a3"] == form({"a2": -1})


def test_third_order_family():
    rep = solve_pure_h(3, 1)
    assert rep.constraint == Fraction(6, 5)
    assert set(rep.free_parameters) == {"a1", "a3"}
    assert rep.assignments["a2"] == form({"a1": Fraction(15, 2)})
    assert rep.assignments["a4"] == form({"a1": 2, "a3": -1})
    # recomputed sign: +(3 a1 - a3 r^2)/r^4, confirmed by both residual oracles
    assert rep.assignments["p"] == form({"a1": 3, "a3": -1})


def test_fourth_order_family():
    rep = solve_pure_h(4, 1)
    assert rep.constraint == Fraction(12, 11)
    assert set(rep.free_parameters) == {"a1", "a4"}
    assert rep.assignments["a2"] == form({"a1": 23})
    assert rep.assignments["a3"] == form({"a1": Fraction(783, 5)})
    assert rep.assignments["a5"] == form({"a1": 51, "a4": -1})
    assert rep.assignments["p"] == form({"a1": 77, "a4": -1})


def test_fifth_order_family():
    rep = solve_pure_h(5, 1)
    assert rep.constraint == Fraction(20, 19)
    assert set(rep.free_parameters) == {"a1", "a5"}
    assert rep.assignments["a2"] == form({"a1": 50})
    assert rep.assignments["a3"] == form({"a1": Fraction(12035, 14)})
    assert rep.assignments["a4"] == form({"a1": Fraction(715045, 126)})
    assert rep.assignments["a6"] == form({"a1": Fraction(13848, 7), "a5": -1})
    assert rep.assignments["p"] == form({"a1": Fraction(41915, 14), "a5": -1})


def test_sixth_order_family():
    rep = solve_pure_h(6, 1)
    assert rep.constraint == Fraction(30, 29)
    assert set(rep.free_parameters) == {"a1", "a6"}
    assert rep.assignments["a2"] == form({"a1": Fraction(183, 2)})
    assert rep.assignments["a3"] == form({"a1": Fraction(6235, 2)})
    assert rep.assignments["a4"] == form({"a1": Fraction(1534015, 32)})
    assert rep.assignments["a5"] == form({"a1": Fraction(139780065, 448)})
    assert rep.assignments["a7"] == form({"a1": Fraction(1796815, 16), "a6": -1})
    # recomputed numerator 5444813 (residual-verified member below)
    assert rep.assignments["p"] == form({"a1": Fraction(5444813, 32), "a6": -1})


def test_pure_h_families_have_expected_radius_powers():
    # solving at r = lambda must rescale each coefficient of a_j in a_i by
    # lambda^(j - i), and in p by lambda^(j - n - 2)
    for n in range(2, 7):
        base = solve_pure_h(n, 1)
        for lam in (Fraction(2), Fraction(3), Fraction(5)):
            scaled = solve_pure_h(n, lam)
            assert scaled.constraint == base.constraint
            index = {f"a{i}": i for i in range(1, n + 2)}
            for name, formula in base.assignments.items():
                got = scaled.assignments[name]
                for free, coeff in formula.terms.items():
                    j = index[free]
                    power = j - index[name] if name != "p" else j - n - 2
                    assert got.coefficient(free) == coeff * lam**power


def test_every_pure_family_verifies_both_ways():
    # the degree 5 and 6 ratios sit close to a = r, where the curvature
    # fields need the finer grid before the spectral oracle is converged
    rng = random.Random(3)
    for n in range(1, 7):
        rep = solve_pure_h(n, 1)
        torus = rep.exact_torus() if rep.a2 is not None else ExactTorus(Fraction(3), 1)
        for _ in range(3):
            values = {name: Fraction(rng.randint(-3, 3)) for name in rep.free_parameters}
            values["a1"] = Fraction(rng.randint(1, 3))
            result = verify_solution(torus, rep, values, n_grid=512)
            assert result.exact
            assert result.numeric_relative < 1e-8


def test_verification_fails_off_the_constraint():
    rep = solve_pure_h(2, 1)
    wrong = ExactTorus(Fraction(3), 1)
    result = verify_solution(wrong, rep, {"a1": Fraction(1), "a2": Fraction(0)})
    assert not result.exact


def test_third_order_gauss_family_at_its_ratio():
    rep = solve_with_gauss(3, 1, a2=Fraction(6, 5))
    assert rep.kterms == ((0, 2), (1, 1))
    assert set(rep.free_parameters) == {"a1", "a2", "a3"}
    assert rep.assignments["p"] == form({"a1": Fraction(21, 2), "a2": -1, "a3": -1})
    assert rep.assignments["a4"] == form({"a1": Fraction(61, 8), "a2": Fraction(-3, 4), "a3": -1})
    assert rep.assignments["a5"] == form({"a1": Fraction(-15, 8), "a2": Fraction(1, 4)})
    assert rep.assignments["a6"] == form({"a1": Fraction(15, 2), "a2": -1})


def test_third_order_gauss_family_away_from_its_ratio_forces_a1_zero():
    rep = solve_with_gauss(3, 1, a2=Fraction(2))
    assert "a1" not in rep.free_parameters
    assert rep.assignments["a1"].is_zero


def test_fourth_order_gauss_family_generic_radii():
    rep = solve_with_gauss(4, 1, a2=Fraction(3))
    assert rep.delta == 18
    assert rep.degeneracy is None
    assert set(rep.free_parameters) == {"a1", "a2", "a3", "a4"}
    assert rep.assignments["a8"] == form({"a1": Fraction(-21, 16)})
    assert rep.assignments["a7"] == form(
        {"a1": Fraction(15, 16), "a2": Fraction(-21, 8), "a3": -1}
    )
    assert rep.assignments["a6"] == form({"a2": Fraction(3, 8), "a3": Fraction(1, 4)})
    assert rep.assignments["a5"] == form(
        {"a1": Fraction(5, 16), "a2": Fraction(-11, 8), "a3": Fraction(-3, 4), "a4": -1}
    )
    assert rep.assignments["p"] == form(
        {"a1": Fraction(5, 16), "a2": Fraction(-15, 8), "a3": -1, "a4": -1}
    )


def test_fourth_order_gauss_family_random_radii_verify():
    rng = random.Random(9)
    done = 0
    while done < 8:
        ratio = Fraction(rng.randint(21, 100), 20)
        r = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        a2 = ratio * r * r
        rep = solve_with_gauss(4, r, a2=a2)
        assert rep.consistent
        values = {name: Fraction(rng.randint(-2, 3)) for name in rep.free_parameters}
        values["a1"] = Fraction(1)
        result = verify_solution(rep.exact_torus(), rep, values)
        assert result.exact
        assert result.numeric_relative < 1e-8
        done += 1


def test_fourth_order_gauss_degenerate_radii_report_and_still_verify():
    # at a^2 = 2 r^2 the generic bound set fails: a5 is freed, a2 bound
    rep = solve_with_gauss(4, 1, a2=Fraction(2))
    assert rep.delta == 0
    assert rep.degeneracy is not None
    assert "a^2-2r^2" in rep.degeneracy.vanished
    assert rep.assignments["a2"] == form({"a1": Fraction(5, 4)})
    assert "a5" in rep.free_parameters
    values = {name: Fraction(1) for name in rep.free_parameters}
    result = verify_solution(rep.exact_torus(), rep, values)
    assert result.exact

    # at a^2 = (6/5) r^2 the radii polynomial vanishes but the generic
    # parametrization survives unchanged
    rep65 = solve_with_gauss(4, 1, a2=Fraction(6, 5))
    assert rep65.delta == 0
    assert rep65.degeneracy is not None
    assert "5a^2-6r^2" in rep65.degeneracy.vanished
    assert set(rep65.free_parameters) == {"a1", "a2", "a3", "a4"}
    result = verify_solution(rep65.exact_torus(), rep65, {f"a{i}": Fraction(1) for i in range(1, 5)})
    assert result.exact


def test_fourth_order_reduced_family_recovers_the_constraint():
    # dropping the H^2 K term reinstates the degree-4 ratio 12/11
    rep = solve_with_gauss(4, 1, kterms=((0, 2), (1, 1)))
    assert rep.constraint == Fraction(12, 11)
    assert set(rep.free_parameters) == {"a1", "a2", "a3", "a4"}
    # the worked form of this family fixes a2 = 23 a1 / r; on that slice the
    # solver reproduces the remaining coefficients verbatim
    slice_values = {"a2": form({"a1": 23})}
    a7 = substitute(rep.assignments["a7"], slice_values)
    a6 = substitute(rep.assignments["a6"], slice_values)
    a5 = substitute(rep.assignments["a5"], slice_values)
    p = substitute(rep.assignments["p"], slice_values)
    assert a7 == form({"a1": Fraction(783, 5), "a3": -1})
    assert a6 == form({"a1": Fraction(-783, 20), "a3": Fraction(1, 4)})
    assert a5 == form({"a1": Fraction(3369, 20), "a3": Fraction(-3, 4), "a4": -1})
    assert p == form({"a1": Fraction(1168, 5), "a3": -1, "a4": -1})


def test_fourth_order_reduced_family_radius_powers():
    rep = solve_with_gauss(4, 2, kterms=((0, 2), (1, 1)))
    assert rep.constraint == Fraction(12, 11)
    # a2 = 23 a1 / r and a7 = (783 a1 - 5 a3 r^2)/(5 r) on the worked slice
    slice_values = {"a2": form({"a1": Fraction(23, 2)})}
    a7 = substitute(rep.assignments["a7"], slice_values)
    assert a7 == form({"a1": Fraction(783, 10), "a3": -2})


def test_fifth_order_gauss_family_generic_radii():
    rep = solve_with_gauss(5, 1, a2=Fraction(3))
    assert rep.delta == 36
    assert set(rep.free_parameters) == {"a1", "a2", "a3", "a4", "a5", "a6"}
    assert rep.assignments["a9"] == form({"a1": Fraction(-37, 24)})
    values = {name: Fraction(1) for name in rep.free_parameters}
    result = verify_solution(rep.exact_torus(), rep, values)
    assert result.exact
    assert result.numeric_relative < 1e-8


def test_fifth_order_case_one_clifford_radii():
    rep = solve_with_gauss(5, 1, a2=Fraction(2))
    assert rep.delta == 0
    assert rep.degeneracy is not None and "a^2-2r^2" in rep.degeneracy.vanished
    assert set(rep.free_parameters) == {"a1", "a2", "a3", "a4", "a5", "a6"}
    # recomputed family (the a1 entries of the worked display fail both
    # residual oracles; these values are fixed by the solve and verified)
    assert rep.assignments["a9"] == form({"a1": Fraction(-3, 2)})
    assert rep.assignments["a10"] == form({"a1": Fraction(-7, 4), "a3": -1})
    assert rep.assignments["a7"] == form(
        {"a1": Fraction(7, 8), "a2": Fraction(-5, 16), "a3": Fraction(1, 4)}
    )
    values = {name: Fraction(2) for name in rep.free_parameters}
    result = verify_solution(rep.exact_torus(), rep, values)
    assert result.exact
    assert result.numeric_relative < 1e-8


def test_fifth_order_case_two_ratio_six_fifths():
    rep = solve_with_gauss(5, 1, a2=Fraction(6, 5))
    assert rep.delta == 0
    assert rep.degeneracy is not None and "5a^2-6r^2" in rep.degeneracy.vanished
    assert rep.assignments["a9"] == form({"a1": Fraction(-7, 6)})
    assert set(rep.free_parameters) == {"a1", "a2", "a3", "a4", "a5", "a6"}
    values = {name: Fraction(1) for name in rep.free_parameters}
    result = verify_solution(rep.exact_torus(), rep, values)
    assert result.exact
    assert result.numeric_relative < 1e-8


def test_theorem_term_ladder_counts():
    assert theorem_kterms(4) == ((0, 1), (1, 1), (2, 1), (0, 2))
    assert theorem_kterms(5) == ((0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2))
    assert default_kterms(4) == ((0, 2), (1, 1), (2, 1))
    assert default_kterms(6) == tuple(
        (k, m) for m in (1, 2, 3) for k in range(0, 7 - 2 * m) if (k, m) != (0, 1)
    )


def test_free_parameter_counts_match_the_stated_tallies():
    # concrete K-augmented families leave n^2/4 coefficients free for even n
    # and (n^2-1)/4 for odd n (a1 included)
    rng = random.Random(17)
    for n, expected in ((4, 4), (5, 6), (6, 9)):
        for _ in range(3):
            ratio = Fraction(rng.randint(21, 90), 20)
            rep = solve_with_gauss(n, 1, a2=ratio)
            assert rep.consistent
            assert len(rep.free_parameters) == expected


def test_cubic_gauss_power_solves_and_verifies():
    # a term set reaching K^3; at this radius the top rows cannot balance a1
    # and a2, so both get pinned while the family still verifies exactly
    rep = solve_with_gauss(6, 1, kterms=((0, 3), (1, 2), (2, 1)), a2=Fraction(5, 2))
    assert rep.consistent
    values = {name: Fraction(2) for name in rep.free_parameters}
    result = verify_solution(rep.exact_torus(), rep, values, n_grid=512)
    assert result.exact
    assert result.numeric_relative < 1e-8


def test_inert_k_coefficient_stays_free_in_theorem_ladder():
    rep = solve_with_gauss(4, 1, kterms=theorem_kterms(4), a2=Fraction(3))
    # the standalone K term cannot appear in the residual, so its
    # coefficient (a6 in ladder order) must remain free
    inert = family_lagrangian(4, theorem_kterms(4)).terms[(0, 1)]
    assert inert in rep.free_parameters
    assert len(rep.free_parameters) == 5


def test_delta_radii_polynomial_values():
    value, vanished = delta_radii_polynomial(4, Fraction(3), Fraction(1))
    assert value == 18 and vanished == ()
    value, vanished = delta_radii_polynomial(4, Fraction(2), Fraction(1))
    assert value == 0 and vanished == ("a^2-2r^2",)
    value, vanished = delta_radii_polynomial(5, Fraction(6, 5), Fraction(1))
    assert value == 0 and vanished == ("5a^2-6r^2",)
    assert delta_radii_polynomial(3, Fraction(2), Fraction(1)) is None


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_pure_h(0, 1)
    with pytest.raises(ValueError):
        solve_pure_h(2, 0)
    with pytest.raises(ValueError):
        solve_with_gauss(1, 1)
    with pytest.raises(ValueError):
        solve_with_gauss(4, 1, a2=Fraction(1, 2))
    with pytest.raises(ValueError):
        # full degree-4 term set: the top row involves a8, no pure constraint
        solve_with_gauss(4, 1, kterms=default_kterms(4), a2=None)


def test_fixed_coefficients_can_make_the_system_inconsistent():
    # pin a1 = 1 on a quadratic family at a ratio other than 2: no critical
    # point exists, and the solve says so instead of raising
    torus = ExactTorus(Fraction(3), 1)
    lag = Lagrangian({(2, 0): 1, (1, 0): "a2", (0, 0): "a3"}, pressure="p")
    outcome = solve_linear_system(el_system(torus, lag), lag.unknowns)
    assert not outcome.consistent
    assert 3 in outcome.offending_rows


def test_first_order_system_kernel_is_the_one_dimensional_family():
    # homogeneous system over (a1, a2, p): with a1 free, the one kernel
    # direction is the whole family a2 = -a1/r, p = -a1/r^2
    for r in (Fraction(1), Fraction(2)):
        torus = ExactTorus(3 * r * r, r)
        rows = el_system(torus, family_lagrangian(1))
        solution = solve_linear_system(rows, ["a1", "a2", "p"], ["p", "a2"])
        assert solution.free == ("a1",)
        assert solution.assignments["a2"] == form({"a1": -1 / r})
        assert solution.assignments["p"] == form({"a1": -1 / r**2})


def test_family_solve_matches_the_fraction_route():
    # the solver reads each family once as integer rows over unknowns
    # normalized by r^-(i+2j-2) (p by r^3) and scales the assignments back at
    # the end; with the same pivot order, solving the Fraction rows of
    # el_system on the torus directly must give the same free parameters and
    # assignments.  The K terms with i + j >= n have columns longer than the
    # n + 2 rows of the pure-H family.
    from torusvar.critical_solver import _pivot_order

    families = [(n, ()) for n in range(2, 9)] + [(n, theorem_kterms(n)) for n in range(4, 8)]
    families += [(4, ((0, 2), (1, 1))), (2, ((0, 2),)), (3, ((0, 3),)), (3, ((2, 1), (1, 2)))]
    families += [(2, ((1, 1), (2, 1))), (2, ((1, 1), (1, 2))), (2, ((4, 1), (0, 1)))]
    for n, kterms in families:
        lagrangian = family_lagrangian(n, kterms)
        for ratio, r in ((3, 1), (Fraction(6, 5), Fraction(17, 16)), (Fraction(25, 8), Fraction(3, 2))):
            if kterms:
                report = solve_with_gauss(n, r, kterms, ratio * r * r)
            else:
                report = solve_pure_h(n, r)
            torus = report.exact_torus()
            rows = el_system(torus, lagrangian)
            direct = solve_linear_system(rows, lagrangian.unknowns, _pivot_order(n, len(kterms)))
            assert report.consistent and direct.consistent
            assert report.free_parameters == direct.free, (n, kterms, r)
            assert report.assignments == direct.assignments, (n, kterms, r)


def test_report_instantiates_numeric_lagrangians():
    rep = solve_pure_h(3, 1)
    lag = rep.lagrangian_at({"a1": Fraction(1), "a3": Fraction(3)})
    assert not lag.unknowns
    assert lag.terms[(3, 0)] == 1
    assert lag.terms[(2, 0)] == Fraction(15, 2)
    assert lag.pressure == 0  # a3 = 3 a1 / r^2 is the zero-pressure member
