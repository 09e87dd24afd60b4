import random
from fractions import Fraction

import pytest

from torusvar.critical_solver import _pivot_order, family_lagrangian, solve_pure_h, solve_with_gauss
from torusvar.exact_algebra import (
    HPoly,
    LinearForm,
    format_fraction,
    parse_fraction,
    solve_linear_system,
    solve_rows,
)
from torusvar.shape_equation import ResidualRows

from oracles import add, derivative, evaluate, exact_families, gauss_jordan, multiply


def test_linear_form_text_is_its_str_and_repr_wraps_it():
    form = LinearForm({"a3": Fraction(-1, 2), "a1": 3}, constant=Fraction(5, 4))
    assert str(form) == "3*a1 + -1/2*a3 + 5/4"
    assert repr(form) == "LinearForm(3*a1 + -1/2*a3 + 5/4)"
    assert str(LinearForm()) == "0"


def test_add_pads_shorter_operand():
    assert add((1, 2), (0, 0, 3)) == (1, 2, 3)


def test_mul_of_monomials():
    h = HPoly.monomial(1).coeffs
    assert multiply(h, h) == (0, 0, 1)


def test_scale_distributes():
    assert HPoly.of([2, -4]).scale(Fraction(1, 2)).coeffs == (1, -2)


def test_trailing_zeros_trimmed_and_zero_poly_empty():
    assert HPoly.of([1, 0, 0]).coeffs == (1,)
    assert HPoly.of([0, 0]).is_zero
    assert HPoly.zero().degree == -1


def test_eval_hand_sum():
    assert evaluate((1, -5, 7, -3), 1) == 0


def test_eval_zero_poly():
    assert evaluate(HPoly.zero().coeffs, 7) == 0


def test_eval_square():
    assert evaluate((0, 0, 1), Fraction(3, 2)) == Fraction(9, 4)


def test_degree_of_product_adds():
    rng = random.Random(7)
    for _ in range(50):
        p = HPoly.of([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 5)])
        q = HPoly.of([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 5)])
        assert len(multiply(p.coeffs, q.coeffs)) - 1 == p.degree + q.degree


def test_eval_is_multiplicative():
    rng = random.Random(11)
    for _ in range(50):
        p = HPoly.of([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]).coeffs
        q = HPoly.of([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]).coeffs
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert evaluate(multiply(p, q), x) == evaluate(p, x) * evaluate(q, x)


def test_derivative():
    assert derivative((5, 1, 3)) == (1, 6)
    assert derivative(HPoly.of([2]).coeffs) == ()


def test_fraction_field_axioms_on_random_triples():
    rng = random.Random(23)
    for _ in range(200):
        a, b, c = (Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


def _kernel_basis(rows, unknowns):
    """One kernel vector per free unknown, read from the solved assignments."""
    solution = solve_linear_system(rows, unknowns)
    assert solution.consistent
    return [tuple(solution.assignments[u].coefficient(free) for u in unknowns) for free in solution.free]


def test_kernel_single_row():
    rows = [LinearForm({"x": 1, "y": -2})]
    assert _kernel_basis(rows, ["x", "y"]) == [(2, 1)]


def test_kernel_of_identity_is_empty():
    rows = [LinearForm({"x": 1}), LinearForm({"y": 1})]
    assert _kernel_basis(rows, ["x", "y"]) == []


def test_resubstitution_is_exactly_zero_on_random_systems():
    rng = random.Random(5)
    for _ in range(40):
        n_unknowns = rng.randint(2, 5)
        unknowns = [f"x{i}" for i in range(n_unknowns)]
        rows = [
            LinearForm({u: Fraction(rng.randint(-4, 4)) for u in unknowns})
            for _ in range(rng.randint(1, 4))
        ]
        for vec in _kernel_basis(rows, unknowns):
            assignment = dict(zip(unknowns, vec))
            for row in rows:
                assert row.evaluate(assignment) == 0


def test_solve_reports_inconsistency_with_offending_rows():
    rows = [
        LinearForm({"x": 1, "y": 1}, constant=-3),
        LinearForm({"x": 1, "y": 1}, constant=-4),
    ]
    sol = solve_linear_system(rows, ["x", "y"])
    assert not sol.consistent
    assert sol.offending_rows == (1,)


def test_solve_affine_system_exactly():
    # x + 2y = 10, 3x - y = 2  ->  x = 2, y = 4
    rows = [
        LinearForm({"x": 1, "y": 2}, constant=-10),
        LinearForm({"x": 3, "y": -1}, constant=-2),
    ]
    sol = solve_linear_system(rows, ["x", "y"])
    assert sol.consistent and not sol.free
    assert sol.assignments["x"].constant == 2
    assert sol.assignments["y"].constant == 4


def test_pivot_order_controls_free_variables():
    rows = [LinearForm({"x": 1, "y": -1})]
    keep_x_free = solve_linear_system(rows, ["x", "y"], pivot_order=["y", "x"])
    assert keep_x_free.free == ("x",)
    keep_y_free = solve_linear_system(rows, ["x", "y"], pivot_order=["x", "y"])
    assert keep_y_free.free == ("y",)


def test_bound_assignments_resubstitute_to_zero():
    rng = random.Random(97)
    for _ in range(40):
        unknowns = [f"x{i}" for i in range(4)]
        rows = [
            LinearForm(
                {u: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for u in unknowns},
                constant=Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            )
            for _ in range(3)
        ]
        sol = solve_linear_system(rows, unknowns)
        if not sol.consistent:
            continue
        values = {u: Fraction(rng.randint(-3, 3)) for u in sol.free}
        full = dict(values)
        for name, form in sol.assignments.items():
            full[name] = form.evaluate(values)
        for row in rows:
            assert row.evaluate(full) == 0


def test_fraction_parsing_and_formatting():
    assert parse_fraction("12/11") == Fraction(12, 11)
    assert parse_fraction(" -3 ") == -3
    assert format_fraction(Fraction(6, 4)) == "3/2"
    assert format_fraction(Fraction(5)) == "5"
    with pytest.raises(ValueError):
        parse_fraction("1/0")
    with pytest.raises(ValueError):
        parse_fraction("abc")


def test_integer_rows_solve_like_linear_forms():
    # solve_rows is the routine behind solve_linear_system; on the integer
    # vectors of the same equations it returns the same solution, zero rows
    # keep their index, and every free unknown is assigned to itself
    rng = random.Random(41)
    unknowns = ["x", "y", "z", "w"]
    for _ in range(40):
        vectors = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(rng.randint(1, 4))]
        vectors.insert(rng.randint(0, len(vectors)), [0] * 5)
        forms = [LinearForm(dict(zip(unknowns, vec[:-1])), vec[-1]) for vec in vectors]
        order = rng.sample(unknowns, 4)
        from_forms = solve_linear_system(forms, unknowns, order)
        from_ints = solve_rows(vectors, unknowns, order)
        assert from_ints == from_forms
        for name in from_ints.free:
            assert from_ints.assignments[name] == LinearForm.variable(name)
        assert set(from_ints.assignments) == set(unknowns)
        assert all(vectors[i][-1] != 0 for i in from_ints.offending_rows)


def _assert_solves_like_gauss_jordan(rows, unknowns, order=None):
    """Compare solve_rows with the Gauss-Jordan oracle; returns the oracle's
    free unknowns and assignments."""
    solution = solve_rows(rows, unknowns, order)
    pivots, free, assignments, offending = gauss_jordan(rows, unknowns, order)
    assert list(solution.pivot_unknowns) == pivots
    assert list(solution.free) == free
    assert list(solution.offending_rows) == offending
    assert solution.consistent == (not offending)
    for u in free:
        assert solution.assignments[u] == LinearForm.variable(u)
    for u, (terms, constant) in assignments.items():
        form = solution.assignments[u]
        assert (form.terms, form.constant) == (terms, constant), u
    return free, assignments


def _random_system(rng, kind):
    n_rows, n_unknowns = rng.randint(1, 9), rng.randint(1, 8)

    def entry():
        if rng.random() < 0.4:
            return 0
        if kind == "fractions":
            return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        return rng.randint(-20, 20)

    rows = [[entry() for _ in range(n_unknowns + 1)] for _ in range(n_rows)]
    if kind == "banded":
        rows = [[x if abs(i - l) <= 2 else 0 for l, x in enumerate(row)] for i, row in enumerate(rows)]
    elif kind == "rank_deficient":
        # a combination of two rows, spliced in among them
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.insert(rng.randint(0, n_rows), [a * x + b * y for x, y in zip(rows[0], rows[-1])])
    elif kind == "inconsistent":
        rows.append([*rows[0][:-1], rows[0][-1] + rng.choice([-2, -1, 1, 2])])
        rng.shuffle(rows)
    names = [f"x{l}" for l in range(n_unknowns)]
    order = rng.sample(names, rng.randint(0, n_unknowns)) if rng.random() < 0.5 else None
    return rows, names, order


@pytest.mark.parametrize("kind", ["dense", "banded", "rank_deficient", "inconsistent", "fractions"])
def test_solve_rows_matches_gauss_jordan_on_random_systems(kind):
    rng = random.Random(kind)
    for _ in range(300):
        _assert_solves_like_gauss_jordan(*_random_system(rng, kind))


@pytest.mark.parametrize(
    "n, kterms, ratio",
    exact_families(),
    ids=[f"n={n} kterms={len(kterms)} a2/r2={ratio}" for n, kterms, ratio in exact_families()],
)
def test_family_systems_solve_like_gauss_jordan(n, kterms, ratio):
    rows = ResidualRows.of(family_lagrangian(n, kterms))
    system = [row + [0] for row in rows.at_ratio(ratio)]
    order = _pivot_order(n, len(kterms))
    free, assignments = _assert_solves_like_gauss_jordan(system, rows.coefficients, order)
    # the same solve returned in the coefficients c = r^w c_normalized
    r = Fraction(17, 16)
    report = solve_with_gauss(n, r, kterms, ratio * r * r) if kterms else solve_pure_h(n, r)
    weight = dict(zip(rows.coefficients, rows.weights))
    assert list(report.free_parameters) == free
    for u, (terms, _) in assignments.items():
        expected = {f: c * r ** (weight[u] - weight[f]) for f, c in terms.items()}
        assert report.assignments[u] == LinearForm(expected), u
