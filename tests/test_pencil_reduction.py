"""A family's rows reduced once over Z[rho] (``exact_algebra.reduce_pencil``)
give, by substituting a ratio, the pivots and the solution that reducing the
rows at that ratio gives; where the pivot polynomial vanishes the solve falls
back to ``reduce_rows``."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from torusvar import critical_solver
from torusvar.critical_solver import (
    _pivot_order,
    default_kterms,
    family_lagrangian,
    solve_with_gauss,
    theorem_kterms,
)
from torusvar.exact_algebra import reduce_pencil, reduce_rows
from torusvar.h_calculus import ExactTorus

from oracles import evaluate, gauss_jordan, monomial_residual

RATIOS = (Fraction(2), Fraction(6, 5), Fraction(3), Fraction(25, 8), Fraction(7, 2), Fraction(41, 13))
# the theorem ladders n = 4..10, the default K sets n = 3..7 and every
# nonempty subset of the n = 4, 5 ladders
FAMILIES = (
    [(n, theorem_kterms(n)) for n in range(4, 11)]
    + [(n, default_kterms(n)) for n in range(3, 8)]
    + [(n, s) for n in (4, 5) for k in range(1, len(theorem_kterms(n)) + 1) for s in combinations(theorem_kterms(n), k)]
)


def reduced_at(rows, order, ratio):
    return reduce_rows([row + [0] for row in rows.at_ratio(ratio)], rows.coefficients, order)


@pytest.mark.parametrize("n, kterms", FAMILIES, ids=[f"n={n} {kterms}" for n, kterms in FAMILIES])
def test_substituting_a_ratio_solves_like_reducing_at_it(n, kterms):
    _, rows, order = critical_solver._family(n, kterms)
    pencil = critical_solver._pencil(n, kterms)
    substituted = 0
    for ratio in RATIOS:
        direct = reduced_at(rows, order, ratio)
        # what the solver reads at r = 1: the same pivots and solution
        expected, solved = direct.solution(), solve_with_gauss(n, 1, kterms, ratio)
        assert set(solved.unknowns) - set(solved.free_parameters) == set(expected.pivot_unknowns), ratio
        assert solved.free_parameters == expected.free and solved.assignments == expected.assignments, ratio
        at = pencil.at(ratio)
        # the pivots differ from the generic ones only where D vanishes
        assert (at is None) == (evaluate(pencil.pivot, ratio) == 0), ratio
        if direct.pivot_columns != pencil.pivot_columns:
            assert at is None, ratio
        if at is not None:
            substituted += 1
            assert at.pivot_columns == pencil.pivot_columns
            # the same coprime rows up to their signs
            for (vec, c), (expected, d) in zip(at.reduced, direct.reduced):
                assert c == d and vec in (expected, tuple(-x for x in expected)), ratio
    assert substituted >= len(RATIOS) - 2


@pytest.mark.parametrize(
    "n, kterms, ratio",
    [(4, default_kterms(4), Fraction(2)), (5, ((1, 1), (2, 1)), Fraction(3))],
    ids=["default K n=4 at 2", "HK,H2K n=5 at 3"],
)
def test_the_fallback_reduces_at_the_ratio_where_the_pivot_polynomial_vanishes(monkeypatch, n, kterms, ratio):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reduce_rows(*args, **kwargs)

    pencil = critical_solver._pencil(n, kterms)
    assert pencil.at(ratio) is None and evaluate(pencil.pivot, ratio) == 0
    _, rows, order = critical_solver._family(n, kterms)
    direct = reduced_at(rows, order, ratio)
    # both swap one generic pivot for another (the notes of their golden files)
    assert direct.pivot_columns != pencil.pivot_columns

    monkeypatch.setattr(critical_solver, "reduce_rows", counted)
    report = solve_with_gauss(n, 1, kterms, ratio)
    assert len(calls) == 1
    assert report.free_parameters == direct.solution().free
    # a ratio off the roots of D is a substitution, with no reduction
    solve_with_gauss(n, 1, kterms, Fraction(25, 8))
    assert len(calls) == 1


def test_a_substituted_family_matches_the_gauss_jordan_oracle():
    # the theorem n = 6 ladder at a^2 = 25/8, r = 1, against Gauss-Jordan on
    # Fractions over rows built from the oracle's monomial residuals
    n, kterms, ratio = 6, theorem_kterms(6), Fraction(25, 8)
    critical_solver._pencil.cache_clear()
    assert critical_solver._pencil(n, kterms).at(ratio) is not None
    report = solve_with_gauss(n, 1, kterms, ratio)

    lagrangian = family_lagrangian(n, kterms)
    columns = [monomial_residual(ExactTorus(ratio, 1), i, j) for i, j in lagrangian.terms] + [(Fraction(2),)]
    rows = [[c[p] if p < len(c) else 0 for c in columns] + [0] for p in range(max(map(len, columns)))]
    unknowns = [*lagrangian.terms.values(), lagrangian.pressure]
    pivots, free, assignments, offending = gauss_jordan(rows, unknowns, _pivot_order(n, len(kterms)))
    assert not offending
    assert list(report.free_parameters) == free
    assert {report.unknowns[c] for c in critical_solver._pencil(n, kterms).pivot_columns} == set(pivots)
    for u, (terms, constant) in assignments.items():
        assert (report.assignments[u].terms, report.assignments[u].constant) == (terms, constant), u


def test_random_pencils_substitute_like_the_gauss_jordan_oracle():
    # small integer pencils, some of them with a row that is a combination of
    # two others, at ratios that include roots of their pivot polynomials
    rng = random.Random(18)
    for _ in range(150):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 7)
        u = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n_cols)] for _ in range(n_rows)]
        v = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n_cols)] for _ in range(n_rows)]
        if rng.random() < 0.4:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            u.append([a * x + b * y for x, y in zip(u[0], u[-1])])
            v.append([a * x + b * y for x, y in zip(v[0], v[-1])])
        names = [f"x{l}" for l in range(n_cols)]
        order = rng.sample(names, rng.randint(0, n_cols))
        pencil = reduce_pencil(u, v, names, order)
        for ratio in (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)):
            rows = [[ratio * x + y for x, y in zip(ur, vr)] + [0] for ur, vr in zip(u, v)]
            pivots, free, assignments, _ = gauss_jordan(rows, names, order)
            at = pencil.at(ratio)
            if at is None:
                assert ratio == 0 or evaluate(pencil.pivot, ratio) == 0
                continue
            solution = at.solution()
            assert list(solution.pivot_unknowns) == pivots and list(solution.free) == free
            for name, (terms, _) in assignments.items():
                assert solution.assignments[name].terms == terms, (u, v, ratio, name)
