"""The grid oracles share one sampled torus per grid within a call; they must
give the same floats, bit for bit, as the plain per-call reference of
``tests/oracles.py``, and a NaN on the grid must reach the verdict."""

import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    ref_area_volume,
    ref_curvature_energy,
    ref_el_residual_numeric_scaled,
    ref_identity_checks,
    ref_max_residual,
    ref_second_variation,
)
from torusvar import cli, critical_solver, energetics, shape_equation
from torusvar.critical_solver import solve_pure_h, solve_with_gauss, theorem_kterms, verify_solution
from torusvar.energetics import Perturbation, curvature_energy, second_variation, willmore_scan
from torusvar.h_calculus import ExactTorus
from torusvar.shape_equation import Lagrangian, el_residual_numeric_scaled
from torusvar.torus_geometry import SampledTorus, TorusShape, area_volume, lb_numeric

GRIDS = (16, 18, 256, 2048, 16384)
# (a^2, r) of the tori: generic, near the Clifford ratio, close to 1, and
# above 4, where H > 0 on the whole torus
TORI = [
    ExactTorus(Fraction(25, 8), Fraction(17, 16)),
    ExactTorus(Fraction(2), 1),
    ExactTorus(Fraction(56, 55) * Fraction(9, 4), Fraction(3, 2)),
    ExactTorus(Fraction(9), 1),
]
LAGRANGIANS = [
    Lagrangian.pure_h({2: 1}),
    Lagrangian({(0, 0): Fraction(3, 7), (2, 0): 2, (1, 1): Fraction(-5, 3), (0, 2): Fraction(1, 9), (3, 1): 4}, Fraction(7, 5)),
    Lagrangian({(0, 1): 1, (2, 2): Fraction(-1, 4)}),
    Lagrangian({}, Fraction(2)),
]
H_ONLY = [
    Lagrangian.pure_h({2: 1}),
    Lagrangian.pure_h({0: Fraction(3, 2), 1: Fraction(-2, 3), 3: 1, 4: Fraction(1, 5)}, Fraction(1, 3)),
]
MODES = [
    Perturbation({1: 1.0}),
    Perturbation({0: 0.5, 2: -1.25}, {1: 0.75, 3: 2.0}),
    Perturbation({}, {2: 1.0}),
]


def same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("torus", TORI, ids=str)
def test_grid_residual_matches_the_reference(torus, n):
    shape = torus.to_shape()
    for lagrangian in LAGRANGIANS:
        residual, scale = el_residual_numeric_scaled(shape, lagrangian, n)
        ref_residual, ref_scale = ref_el_residual_numeric_scaled(shape, lagrangian, n)
        assert np.array_equal(residual, ref_residual) and same(residual, ref_residual)
        assert scale == ref_scale


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("torus", TORI, ids=str)
def test_energy_and_area_match_the_reference(torus, n):
    shape = torus.to_shape()
    for lagrangian in LAGRANGIANS[:3]:
        for pressure in (0.0, 1.5):
            report = curvature_energy(shape, lagrangian, pressure, n)
            assert (report.area_term, report.pressure_term) == ref_curvature_energy(shape, lagrangian, pressure, n)
    av = area_volume(shape, n)
    assert (av.area_quadrature, av.volume_quadrature) == ref_area_volume(shape, n)


def test_curvature_energy_samples_its_torus_once(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return SampledTorus(*args)

    monkeypatch.setattr(energetics, "SampledTorus", counted)
    curvature_energy(TorusShape(2.0, 1.0), LAGRANGIANS[1], 1.5, 256)
    assert len(built) == 1


@pytest.mark.parametrize("n", (16, 64, 256, 2048))
@pytest.mark.parametrize("degree, ratio", [(2, "3"), (3, "6/5"), (6, "9/4")])
def test_energy_error_estimate_is_the_half_grid_change_of_the_reference(degree, ratio, n, capsys):
    assert cli.main(["energy", "--degree", str(degree), "--ratio", ratio, "--r", "3/2", "--grid", str(n)]) == 0
    text = capsys.readouterr().out
    lagrangian, _ = cli._family_member(degree, Fraction(3, 2))
    shape = TorusShape.from_ratio(Fraction(ratio), Fraction(3, 2))
    change = abs(ref_curvature_energy(shape, lagrangian, 0.0, n)[0] - ref_curvature_energy(shape, lagrangian, 0.0, n // 2)[0])
    assert f"grid: {n}\nquadrature error estimate: {change:.15g}\n" in text


@pytest.mark.parametrize("n", GRIDS)
def test_willmore_scan_matches_the_reference(n):
    shapes = [t.to_shape() for t in TORI]
    bending = Lagrangian.pure_h({2: 1})
    assert [v for _, v in willmore_scan(shapes, n)] == [ref_curvature_energy(t, bending, 0.0, n)[0] for t in shapes]


@pytest.mark.parametrize("n", (32, 18, 256, 2048, 16384))
@pytest.mark.parametrize("torus", TORI, ids=str)
def test_second_variation_matches_the_reference(torus, n):
    shape = torus.to_shape()
    for lagrangian in H_ONLY:
        for pressure in (0.0, -0.75):
            for omega in MODES:
                for v_mode in (0, 1, 2):
                    got = second_variation(shape, lagrangian, pressure, omega, n, v_mode)
                    want = ref_second_variation(shape, lagrangian, pressure, omega, n, v_mode)
                    assert got == want, (lagrangian, pressure, omega, v_mode)


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("torus", TORI, ids=str)
def test_identities_match_the_reference(torus, n, capsys):
    assert cli._identity_checks(torus, torus.to_shape(), n) == ref_identity_checks(torus, n)
    argv = ["identities", "--a2", str(torus.a2), "--r", str(torus.r), "--grid", str(n), "--format", "json"]
    cli.main(argv)
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == {name: float(f"{err:.15g}") for name, err in ref_identity_checks(torus, n)}


@pytest.mark.parametrize(
    "report, a1",
    [
        (solve_pure_h(3, Fraction(17, 16)), Fraction(1)),
        (solve_pure_h(6, 1), Fraction(-3, 2)),
        (solve_with_gauss(4, Fraction(3, 2), theorem_kterms(4), Fraction(27, 4)), Fraction(2)),
    ],
)
@pytest.mark.parametrize("n", GRIDS)
def test_verify_solution_matches_the_reference(report, a1, n):
    values = {name: Fraction(0) for name in report.free_parameters}
    values["a1"] = a1
    torus = report.exact_torus()
    result = verify_solution(torus, report, values, n)
    residual, scale = ref_el_residual_numeric_scaled(torus.to_shape(), report.lagrangian_at(values), n)
    assert result.numeric_max_residual == ref_max_residual(residual)
    assert result.numeric_scale == scale


@pytest.mark.parametrize("index", [0, 1, 100, 255])
def test_a_nan_anywhere_on_the_grid_reaches_the_verdict(monkeypatch, index):
    report = solve_pure_h(3, 1)
    values = {name: Fraction(0) for name in report.free_parameters}
    values["a1"] = Fraction(1)
    grid_residual = shape_equation.el_residual_numeric_scaled

    def with_nan(*args):
        residual, scale = grid_residual(*args)
        residual[index] = np.nan
        return residual, scale

    monkeypatch.setattr(critical_solver.shape_equation, "el_residual_numeric_scaled", with_nan)
    result = verify_solution(report.exact_torus(), report, values, 256)
    assert np.isnan(result.numeric_max_residual)
    assert not result.numeric_relative < 1e-8


def test_sampled_torus_keeps_its_powers_and_checks_the_grid():
    s = SampledTorus(TorusShape(2.0, 1.0), 64)
    assert s.h_power(3) is s.h_power(3)
    assert same(s.h_power(3), s.h * s.h * s.h) and same(s.k_power(2), s.k**2)
    with pytest.raises(ValueError, match="62 samples on a torus sampled at 64 points"):
        lb_numeric(s, np.zeros(62))
    # the grid check stays in the operators; sampling takes any grid
    assert SampledTorus(TorusShape(2.0, 1.0), 9).area_integral(1.0) > 0


@pytest.mark.parametrize("torus", TORI, ids=str)
def test_powers_are_within_e_minus_1_roundings_of_the_exact_power(torus):
    s = SampledTorus(torus.to_shape(), 256)
    smallest = Fraction(sys.float_info.min)
    checked = 0
    for field, power in ((s.h, s.h_power), (s.k, s.k_power)):
        for node, x in enumerate(field):
            exact = Fraction(1)
            for e in range(1, 17):
                exact *= Fraction(x)
                # below the normal range the float power underflows, by any recipe
                if e == 1 or abs(exact) < smallest:
                    continue
                error = abs(Fraction(power(e)[node]) - exact)
                assert error <= (e - 1) * abs(exact) / 2**53, (node, e)
                checked += 1
    assert checked > 2 * 256 * 15 * 0.9


def test_powers_do_not_depend_on_the_order_they_are_asked_in():
    shape = TORI[0].to_shape()
    ascending, descending = SampledTorus(shape, 256), SampledTorus(shape, 256)
    for e in range(2, 8):
        ascending.h_power(e), ascending.k_power(e)
    for e in (7, 3, 5, 2):
        descending.h_power(e), descending.k_power(e)
    for e in range(2, 8):
        assert same(descending.h_power(e), ascending.h_power(e))
        assert same(descending.k_power(e), ascending.k_power(e))
