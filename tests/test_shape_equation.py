import random
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from torusvar.critical_solver import family_lagrangian, solve_pure_h, solve_with_gauss, theorem_kterms
from torusvar.exact_algebra import HPoly, LinearForm
from torusvar.h_calculus import ExactTorus
from torusvar.shape_equation import (
    HelfrichParams,
    Lagrangian,
    el_residual,
    el_residual_numeric_scaled,
    el_system,
    helfrich_lagrangian,
    residual_column,
    sphere_residual,
)
from torusvar.torus_geometry import curvatures, grid_nodes, suggest_grid

from oracles import add, exact_families, lagrangian_residual, monomial_residual

CLIFFORD = ExactTorus(Fraction(2), 1)


def random_exact_tori(count, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        ratio = Fraction(rng.randint(23, 70), 20)
        out.append(ExactTorus(ratio * r * r, r))
    return out


def test_first_order_family_is_critical_for_any_radii():
    for t in random_exact_tori(4, seed=1):
        r = t.r
        lag = Lagrangian.pure_h({1: 1, 0: Fraction(-1) / r}, pressure=Fraction(-1) / (r * r))
        assert el_residual(t, lag).is_zero


def test_unit_density_collapses_to_minus_four_h():
    for t in random_exact_tori(3, seed=2):
        lag = Lagrangian.pure_h({0: 1})
        assert el_residual(t, lag).coeffs == (0, -4)


def test_clifford_torus_is_willmore_critical():
    lag = Lagrangian.pure_h({2: 1})
    assert el_residual(CLIFFORD, lag).is_zero
    other = ExactTorus(Fraction(3), 1)
    assert not el_residual(other, lag).is_zero


def test_el_residual_requires_numeric_lagrangian():
    with pytest.raises(ValueError):
        el_residual(CLIFFORD, Lagrangian.pure_h({2: "a1"}))


def test_el_system_requires_an_unknown():
    with pytest.raises(ValueError):
        el_system(CLIFFORD, Lagrangian.pure_h({2: 1}))


def test_exact_residual_matches_grid_only_route():
    rng = random.Random(7)
    tori = random_exact_tori(4, seed=9)
    for trial in range(8):
        t = tori[trial % len(tori)]
        terms = {}
        for k in range(5):
            terms[(k, 0)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        for km in ((0, 2), (1, 1), (2, 1), (1, 2)):
            if rng.random() < 0.7:
                terms[km] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        pressure = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        lag = Lagrangian(terms, pressure)

        poly = el_residual(t, lag)
        grid = el_residual_numeric_scaled(t.to_shape(), lag, 256)[0]
        from torusvar.torus_geometry import curvatures, grid_nodes

        h, _ = curvatures(t.to_shape(), grid_nodes(256))
        idx = np.arange(0, 256, 4)
        exact = np.array([poly.eval_float(x) for x in h[idx]])
        scale = max(1.0, float(np.max(np.abs(grid[idx]))))
        assert np.max(np.abs(exact - grid[idx])) / scale < 1e-8


@pytest.mark.parametrize(
    "t",
    [
        ExactTorus(3 * Fraction(17, 16) ** 2, Fraction(17, 16)),
        # the degree-8 ratio 56/55, close to 1
        ExactTorus(Fraction(56, 55) * Fraction(9, 4), Fraction(3, 2)),
    ],
)
def test_integer_columns_match_the_grid_residual(t):
    # the table read by hand, r^-(i+2j+1) sum_p (U_p + V_p / rho) (r H)^p,
    # against the residual of E = H^i K^j built from spectral operators only
    n = suggest_grid(t.to_shape())
    h, _ = curvatures(t.to_shape(), grid_nodes(n))
    x = float(t.r) * h
    for i in range(13):
        for j in range((12 - i) // 2 + 1):
            u, v = residual_column(i, j)
            column = np.zeros_like(h)
            for p in reversed(range(max(len(u), len(v)))):
                up = u[p] if p < len(u) else 0
                vp = v[p] if p < len(v) else 0
                column = column * x + float(up + vp * t.r2 / t.a2)
            column /= float(t.r) ** (i + 2 * j + 1)
            grid, scale = el_residual_numeric_scaled(t.to_shape(), Lagrangian({(i, j): 1}), n)
            assert np.max(np.abs(column - grid)) < 1e-9 * scale, (i, j)


def test_residual_is_additive_in_lagrangian_and_pressure():
    rng = random.Random(13)
    for t in random_exact_tori(3, seed=17):
        for _ in range(5):
            t1 = {(rng.randint(0, 3), rng.randint(0, 1)): Fraction(rng.randint(-4, 4)) for _ in range(3)}
            t2 = {(rng.randint(0, 3), rng.randint(0, 1)): Fraction(rng.randint(-4, 4)) for _ in range(3)}
            p1 = Fraction(rng.randint(-3, 3))
            p2 = Fraction(rng.randint(-3, 3))
            la, lb = Lagrangian(t1, p1), Lagrangian(t2, p2)
            merged = dict(t1)
            for km, c in t2.items():
                merged[km] = merged.get(km, Fraction(0)) + c
            combined = Lagrangian(merged, p1 + p2)
            assert el_residual(t, combined).coeffs == add(el_residual(t, la).coeffs, el_residual(t, lb).coeffs)


def test_pure_gauss_term_never_contributes():
    rng = random.Random(19)
    for t in random_exact_tori(4, seed=23):
        base_terms = {
            (k, 0): Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for k in range(4)
        }
        base_terms[(1, 1)] = Fraction(rng.randint(-5, 5))
        pressure = Fraction(rng.randint(-3, 3))
        base = Lagrangian(base_terms, pressure)
        with_k = Lagrangian({**base_terms, (0, 1): Fraction(17, 3)}, pressure)
        assert el_residual(t, base) == el_residual(t, with_k)


def _pure_h_family(n):
    terms = {(n - i, 0): f"a{i + 1}" for i in range(n + 1)}
    return Lagrangian(terms, pressure="p")


def _row(rows, power):
    """Row ``power`` of an el_system result; the zero form above its last row."""
    return rows[power] if power < len(rows) else LinearForm()


def test_top_row_reduces_to_the_leading_coefficient_equation():
    # coefficient of H^(n+1) must be a1 * (4 n (n-1)^2 (r^2 - a^2)/a^2 + 4(n-1))
    for t in random_exact_tori(3, seed=29):
        for n in range(2, 11):
            row = _row(el_system(t, _pure_h_family(n)), n + 1)
            expected = Fraction(4 * n * (n - 1) ** 2) * (t.r2 - t.a2) / t.a2 + 4 * (n - 1)
            assert row == LinearForm({"a1": expected})


def test_rows_are_affine_in_inverse_a_squared():
    # at fixed r every row is U + V / a^2, so the rows at any third a^2 must
    # follow from those at two
    r = Fraction(17, 16)
    s1, s2, s3 = 3 * r * r, Fraction(7, 2) * r * r, Fraction(11, 5) * r * r
    weight = (1 / s3 - 1 / s2) / (1 / s1 - 1 / s2)
    families = [_pure_h_family(n) for n in range(1, 13)]
    families += [family_lagrangian(n, theorem_kterms(n)) for n in range(4, 9)]
    for lag in families:
        first, second, third = (el_system(ExactTorus(s, r), lag) for s in (s1, s2, s3))
        for power in range(max(len(first), len(second), len(third))):
            # coefficient by coefficient, the constant last
            rows = [_row(system, power) for system in (first, second, third)]
            x, y, z = ([*map(row.coefficient, lag.unknowns), row.constant] for row in rows)
            assert [weight * a + (1 - weight) * b for a, b in zip(x, y)] == z, (lag.terms, power)


def test_second_order_top_row_forces_clifford_ratio():
    # the top-row coefficient vanishes exactly at a^2 = 2 r^2
    t = ExactTorus(Fraction(2), 1)
    assert _row(el_system(t, _pure_h_family(2)), 3).is_zero
    t_off = ExactTorus(Fraction(5, 2), 1)
    assert not _row(el_system(t_off, _pure_h_family(2)), 3).is_zero


def test_known_solution_zeroes_every_system_row():
    t = ExactTorus(Fraction(6, 5), 1)
    rows = el_system(t, _pure_h_family(3))
    values = {
        "a1": Fraction(2),
        "a2": Fraction(15),
        "a3": Fraction(5),
        "a4": Fraction(-1),
        "p": Fraction(1),
    }
    assert all(row.evaluate(values) == 0 for row in rows)


def test_helfrich_expansion():
    params = HelfrichParams(k_c=Fraction(3), c0=Fraction(1, 2), w=Fraction(5))
    lag = helfrich_lagrangian(params)
    assert lag.terms[(2, 0)] == 6  # 2 k_c
    assert lag.terms[(1, 0)] == 3  # 2 k_c c0
    assert lag.terms[(0, 0)] == Fraction(3, 8) + 5  # k_c c0^2/2 + w


def test_helfrich_rejects_zero_rigidity():
    with pytest.raises(ValueError):
        HelfrichParams(k_c=0, c0=1, w=1)


def test_sphere_residual_minimal_density():
    lag = Lagrangian.pure_h({0: 1})
    assert sphere_residual(Fraction(2), lag, Fraction(0)) == -2
    # balancing pressure makes the sphere critical
    assert sphere_residual(Fraction(2), lag, Fraction(1)) == 0


def test_sphere_residual_willmore_vanishes_for_every_radius():
    lag = Lagrangian.pure_h({2: 1})
    for radius in (Fraction(1), Fraction(3, 2), Fraction(7), Fraction(1, 5)):
        assert sphere_residual(radius, lag, Fraction(0)) == 0


def test_sphere_residual_is_twice_the_quadratic_shape_relation():
    # with constant curvatures the residual reduces to
    # 2 (p - 2wH + k_c (2H + c0)(2H^2 - c0 H - 2K)) at H = 1/R, K = 1/R^2
    rng = random.Random(31)
    for _ in range(10):
        k_c = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        c0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        w = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        radius = Fraction(rng.randint(1, 5), rng.randint(1, 2))
        lag = helfrich_lagrangian(HelfrichParams(k_c, c0, w, p))
        h = 1 / radius
        k = h * h
        shape_relation = p - 2 * w * h + k_c * (2 * h + c0) * (2 * h * h - c0 * h - 2 * k)
        assert sphere_residual(radius, lag, p) == 2 * shape_relation


def test_sphere_residual_rejects_bad_radius():
    with pytest.raises(ValueError):
        sphere_residual(Fraction(0), Lagrangian.pure_h({2: 1}), Fraction(0))


def test_lagrangian_validation_and_substitution():
    with pytest.raises(ValueError):
        Lagrangian({(-1, 0): 1})
    lag = Lagrangian({(2, 0): "a1", (0, 1): "a2"}, pressure="p")
    assert lag.unknowns == ("a1", "a2", "p")
    numeric = lag.substitute({"a1": Fraction(2), "a2": Fraction(0), "p": Fraction(1, 3)})
    assert not numeric.unknowns
    assert numeric.terms == {(2, 0): Fraction(2)}
    assert numeric.pressure == Fraction(1, 3)


def _exact_families_columns():
    """Every (H power, K power) that the exact-families systems use, K^7
    among them."""
    return sorted({km for n, kterms, _ in exact_families() for km in family_lagrangian(n, kterms).terms})


def test_integer_columns_match_the_closed_form_residual():
    # two tori of different a^2/r^2 pin both the U and the V part of a column
    tori = (ExactTorus(Fraction(25, 8) * Fraction(289, 256), Fraction(17, 16)), ExactTorus(Fraction(7, 3), 1))
    columns = _exact_families_columns()
    assert (0, 7) in columns
    for i, j in columns:
        u, v = residual_column(i, j)
        for t in tori:
            coeffs = [
                t.r ** (p - i - 2 * j - 1) * (up + vp / t.ratio)
                for p, (up, vp) in enumerate(zip_longest(u, v, fillvalue=0))
            ]
            assert HPoly.of(coeffs).coeffs == monomial_residual(t, i, j), (i, j)


def test_el_residual_matches_the_closed_form_residual():
    rng = random.Random(41)
    columns = _exact_families_columns()
    for t in random_exact_tori(6, seed=43):
        for _ in range(4):
            terms = {
                km: Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                for km in rng.sample(columns, rng.randint(1, 8))
            }
            lagrangian = Lagrangian(terms, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            residual = el_residual(t, lagrangian)
            assert not residual.is_zero
            assert residual.coeffs == lagrangian_residual(t, lagrangian)


@pytest.mark.parametrize(
    "n, kterms, ratio",
    exact_families(),
    ids=[f"n={n} kterms={len(kterms)} a2/r2={ratio}" for n, kterms, ratio in exact_families()],
)
def test_random_family_members_are_critical_by_the_closed_forms(n, kterms, ratio):
    rng = random.Random(n)
    r = Fraction(17, 16)
    report = solve_with_gauss(n, r, kterms, ratio * r * r) if kterms else solve_pure_h(n, r)
    t = report.exact_torus()
    member = report.lagrangian_at(
        {f: Fraction(rng.randint(1, 999), rng.randint(1, 999)) for f in report.free_parameters}
    )
    assert el_residual(t, member).is_zero
    assert lagrangian_residual(t, member) == ()
