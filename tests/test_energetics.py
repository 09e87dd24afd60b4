import math
import random
from fractions import Fraction

import pytest

from torusvar.energetics import (
    Perturbation,
    curvature_energy,
    second_variation,
    willmore_scan,
)
from torusvar.critical_solver import solve_pure_h
from torusvar.shape_equation import Lagrangian
from torusvar.torus_geometry import TorusShape, area_volume, grid_nodes

PI2 = math.pi**2
CLIFFORD = TorusShape.from_ratio(2, 1)


def zero_pressure_member(degree, r=1):
    """Degree-n critical family member with a1 = 1 and vanishing pressure."""
    rep = solve_pure_h(degree, r)
    values = {name: Fraction(0) for name in rep.free_parameters}
    values["a1"] = Fraction(1)
    other = [f for f in rep.free_parameters if f != "a1"]
    if other:
        p_form = rep.assignments["p"]
        values[other[0]] = -p_form.coefficient("a1") / p_form.coefficient(other[0])
    lag = rep.lagrangian_at(values)
    assert lag.pressure == 0
    return lag, rep.constraint


def test_willmore_energy_of_clifford_torus():
    lag, rho = zero_pressure_member(2)
    report = curvature_energy(TorusShape.from_ratio(rho, 1), lag)
    assert report.area_term == pytest.approx(2 * PI2, rel=1e-10)
    assert report.pressure_term == 0.0
    assert report.total == report.area_term


def test_cubic_family_energy():
    lag, rho = zero_pressure_member(3)
    report = curvature_energy(TorusShape.from_ratio(rho, 1), lag)
    assert report.area_term == pytest.approx(9 * math.sqrt(5) * PI2, rel=1e-10)


def test_quartic_quintic_sextic_family_energies():
    expected = {
        4: 666 * math.sqrt(11) / 5 * PI2,
        5: 235750 * math.sqrt(19) / 63 * PI2,
        6: 37643625 * math.sqrt(29) / 224 * PI2,
    }
    for degree, value in expected.items():
        lag, rho = zero_pressure_member(degree)
        report = curvature_energy(TorusShape.from_ratio(rho, 1), lag)
        assert report.area_term == pytest.approx(value, rel=1e-10)


def test_energy_scales_with_r_like_the_closed_forms():
    # F_n / a1 carries 1/r^(n-2)
    for degree, base in ((3, 9 * math.sqrt(5) * PI2), (4, 666 * math.sqrt(11) / 5 * PI2)):
        lag, rho = zero_pressure_member(degree, r=2)
        report = curvature_energy(TorusShape.from_ratio(rho, 2), lag)
        assert report.area_term == pytest.approx(base / 2 ** (degree - 2), rel=1e-10)


def test_pressure_term_and_total():
    # F = area term - p V, with V = 2 pi^2 a r^2 = 4 pi^2 here
    t = TorusShape(2.0, 1.0)
    report = curvature_energy(t, Lagrangian.pure_h({2: 1}), pressure=0.5)
    assert report.pressure_term == pytest.approx(-0.5 * 4 * PI2, rel=1e-14)
    assert report.total == pytest.approx(report.area_term + report.pressure_term)


def test_total_is_stationary_in_the_radii_at_a_solved_member():
    # The quadratic membrane member k_c = 3/2, c0 = 5/7 on the r = 1/2 torus
    # of ratio 2, at its solved pressure.  A critical torus is stationary
    # under every variation, changes of a and r included, so the total must
    # be flat in both radii; with +p V it would fall at -84.6 and -239.
    k_c, c0, r = Fraction(3, 2), Fraction(5, 7), Fraction(1, 2)
    rep = solve_pure_h(2, r)
    lag = rep.lagrangian_at({"a1": 2 * k_c, "a2": 2 * k_c * c0})
    pressure = float(lag.pressure)
    a, r = math.sqrt(rep.constraint) * float(r), float(r)
    step = 1e-5

    def slope(field, da, dr):
        def at(sign):
            report = curvature_energy(TorusShape(a + sign * da, r + sign * dr), lag, pressure)
            return getattr(report, field)

        return (at(1) - at(-1)) / (2 * step)

    for da, dr in ((step, 0.0), (0.0, step)):
        assert abs(slope("total", da, dr)) < 1e-6 * abs(slope("area_term", da, dr))


def test_energy_is_linear_in_coefficients_and_pressure():
    rng = random.Random(5)
    t = TorusShape(1.7, 0.8)
    for _ in range(5):
        c1 = {k: Fraction(rng.randint(-5, 5)) for k in range(4)}
        c2 = {k: Fraction(rng.randint(-5, 5)) for k in range(4)}
        p1, p2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        merged = {k: c1[k] + c2[k] for k in c1}
        total_sum = curvature_energy(t, Lagrangian.pure_h(merged), p1 + p2).total
        split = (
            curvature_energy(t, Lagrangian.pure_h(c1), p1).total
            + curvature_energy(t, Lagrangian.pure_h(c2), p2).total
        )
        assert total_sum == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_adding_gauss_term_changes_nothing_on_the_torus():
    # total curvature of the torus vanishes, so a K term integrates to zero
    t = TorusShape(1.9, 1.1)
    base = Lagrangian({(2, 0): 1, (1, 0): Fraction(1, 3)})
    with_k = Lagrangian({(2, 0): 1, (1, 0): Fraction(1, 3), (0, 1): Fraction(7, 2)})
    e0 = curvature_energy(t, base).area_term
    e1 = curvature_energy(t, with_k).area_term
    assert abs(e1 - e0) < 1e-10 * abs(e0)


def test_willmore_scan_minimum_at_clifford_ratio():
    shapes = [TorusShape.from_ratio(Fraction(p, 2), 1) for p in (3, 4, 6)]
    values = [v for _, v in willmore_scan(shapes)]
    at_min = values[1]
    assert at_min == pytest.approx(2 * PI2, rel=1e-10)
    assert values[0] > at_min
    assert values[2] > at_min


def test_willmore_scan_diverges_toward_degenerate_ratio():
    ratios = [Fraction(11, 10), Fraction(21, 20), Fraction(41, 40)]
    values = [v for _, v in willmore_scan([TorusShape.from_ratio(q, 1) for q in ratios])]
    assert values[0] < values[1] < values[2]


def test_willmore_energy_is_scale_invariant():
    small = TorusShape.from_ratio(Fraction(5, 2), 1)
    large = TorusShape.from_ratio(Fraction(5, 2), 3)
    e_small = willmore_scan([small])[0][1]
    e_large = willmore_scan([large])[0][1]
    assert e_small == pytest.approx(e_large, rel=1e-10)


def test_second_variation_zero_perturbation():
    lag, rho = zero_pressure_member(2)
    t = TorusShape.from_ratio(rho, 1)
    assert second_variation(t, lag, 0.0, Perturbation()) == 0.0


def test_second_variation_is_quadratic_in_omega():
    lag, rho = zero_pressure_member(2)
    t = TorusShape.from_ratio(rho, 1)
    omega = Perturbation({1: 1.0}, {2: 0.5})
    base = second_variation(t, lag, 0.0, omega)
    doubled = second_variation(t, lag, 0.0, omega.scale(2.0))
    assert doubled == pytest.approx(4.0 * base, rel=1e-10)


def test_second_variation_parallelogram_law():
    lag, rho = zero_pressure_member(3)
    t = TorusShape.from_ratio(rho, 1)
    w1 = Perturbation({1: 1.0, 3: -0.25})
    w2 = Perturbation({2: 0.7}, {1: 0.4})
    lhs = second_variation(t, lag, 0.0, w1 + w2) + second_variation(t, lag, 0.0, w1 - w2)
    rhs = 2.0 * second_variation(t, lag, 0.0, w1) + 2.0 * second_variation(t, lag, 0.0, w2)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) / scale < 1e-9


def test_second_variation_grid_self_convergence():
    lag, rho = zero_pressure_member(2)
    t = TorusShape.from_ratio(rho, 1)
    omega = Perturbation({1: 1.0})
    fine = second_variation(t, lag, 0.0, omega, n=256)
    coarse = second_variation(t, lag, 0.0, omega, n=128)
    assert math.isfinite(fine)
    assert abs(fine - coarse) < 1e-8 * max(1.0, abs(fine))


def test_second_variation_rejects_k_dependence():
    t = TorusShape.from_ratio(2, 1)
    with pytest.raises(ValueError):
        second_variation(t, Lagrangian({(2, 0): 1, (1, 1): 1}), 0.0, Perturbation({1: 1.0}))


def test_second_variation_azimuthal_mode_extension():
    lag, rho = zero_pressure_member(2)
    t = TorusShape.from_ratio(rho, 1)
    omega = Perturbation({1: 1.0})
    value = second_variation(t, lag, 0.0, omega, v_mode=2)
    assert math.isfinite(value)
    doubled = second_variation(t, lag, 0.0, omega.scale(2.0), v_mode=2)
    assert doubled == pytest.approx(4.0 * value, rel=1e-10)


def test_reduced_volume_and_ratio_relations_at_clifford():
    v = area_volume(CLIFFORD).reduced_volume
    assert v == pytest.approx(0.7116, abs=5e-4)
    # 1.94 is the rounded 16 pi^2/81 of the vesicle literature
    assert abs(2.0 - 1.0 / (1.94 * v**4)) / 2.0 < 0.01
    assert 1.0 / (16 * PI2 / 81 * v**4) == pytest.approx(2.0, rel=1e-12)


def test_exact_constant_identity_for_random_tori():
    rng = random.Random(11)
    for _ in range(5):
        ratio = Fraction(rng.randint(23, 90), 20)
        t = TorusShape.from_ratio(ratio, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
        v = area_volume(t).reduced_volume
        assert 16 * PI2 / 81 * v**4 * float(ratio) == pytest.approx(1.0, abs=1e-12)


def test_measured_vesicle_ratio():
    assert 1.43**2 == pytest.approx(2.0449)
    assert round(1.43**2, 2) == 2.04


def test_perturbation_algebra():
    u = grid_nodes(16)
    w = Perturbation({1: 1.0}, {2: -0.5})
    assert w.values(u).any()
    assert not Perturbation().values(u).any()
    combined = w + w.scale(-1.0)
    assert not combined.values(u).any()
    with pytest.raises(ValueError):
        Perturbation({-1: 1.0})
